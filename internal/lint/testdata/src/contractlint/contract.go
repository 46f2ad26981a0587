// Package harnessfixture seeds concurrency-contract violations for the
// contractlint analyzer. Its synthetic import path contains "harness" so
// it lands inside the analyzer's package scope.
package harnessfixture

import (
	"sync"

	"bingo/internal/harnessfixture/dep"
)

// Undocumented lists sweep points.
var Undocumented = []int{1, 2, 3} // want `must state the concurrency contract`

// Documented lists sweep points; it is immutable after init and safe for
// concurrent readers.
var Documented = []int{1, 2, 3}

var internalScratch = map[string]int{} // unexported: out of scope

// Counters aggregates run statistics.
type Counters struct { // want `holds a lock but its doc comment states no concurrency contract`
	mu sync.Mutex
	n  int
}

// SafeCounters aggregates run statistics; mu guards n, and the type is
// safe for concurrent use.
type SafeCounters struct {
	mu sync.Mutex
	n  int
}

// Imported embeds a counter type from another package.
type Imported struct { // want `holds a lock but its doc comment states no concurrency contract`
	dep.Locked
}

// ImportedPlain embeds dep's plain type, which needs no contract.
type ImportedPlain struct {
	dep.Plain
}

// Inc is fine: pointer receiver.
func (c *Counters) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Snapshot copies the lock by value; that is go vet's copylocks check,
// so contractlint stays quiet here.
func (c Counters) Snapshot() int {
	return c.n
}

func merge(a *Counters, b Counters) {
	a.n += b.n
}

// embedder picks up the lock through an embedded value field.
type embedder struct {
	Counters
}

func consume(e embedder) int {
	return e.n
}

func byPointer(c *Counters, e *embedder) int { // pointers: allowed
	return c.n + e.n
}
