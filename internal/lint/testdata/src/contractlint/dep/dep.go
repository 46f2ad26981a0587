// Package dep is the cross-package half of the contractlint fixture: it
// exports a mutex-bearing type that an importing harness type embeds, so
// the lock must be found by walking a type from another package.
package dep

import "sync"

// Locked guards its counter with its own mutex.
type Locked struct {
	mu sync.Mutex
	n  int
}

// Inc bumps the counter under the lock.
func (l *Locked) Inc() {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
}

// Plain holds no lock.
type Plain struct {
	N int
}
