package vm

import (
	"fmt"
	"sort"

	"bingo/internal/checkpoint"
)

// SaveState implements checkpoint.Checkpointable. The first-touch map is
// serialised sorted by virtual page (map order is nondeterministic, the
// wire format must not be); the shuffled free list is captured as its
// refill cursor rather than its contents, since the RNG stream is
// deterministic from the constructor seed.
func (t *Translator) SaveState(w *checkpoint.Writer) error {
	w.Version(1)
	vpns := make([]uint64, 0, len(t.mapping))
	for vpn := range t.mapping {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	frames := make([]uint64, len(vpns))
	for i, vpn := range vpns {
		frames[i] = t.mapping[vpn]
	}
	w.U64s(vpns)
	w.U64s(frames)
	w.Int(t.nextFree)
	w.Int(t.refills)
	return w.Err()
}

// LoadState implements checkpoint.Checkpointable. It requires a freshly
// built translator with the same seed and geometry: the free list is
// rebuilt by replaying the recorded number of refills against the fresh
// RNG, which repositions the random-frame stream exactly where the
// snapshot left it.
func (t *Translator) LoadState(r *checkpoint.Reader) error {
	if len(t.mapping) != 0 || t.refills != 0 {
		return fmt.Errorf("vm: checkpoint restore requires a freshly built translator")
	}
	r.Version(1)
	vpns := r.U64s()
	frames := r.U64s()
	nextFree := r.Int()
	refills := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if len(vpns) != len(frames) {
		return fmt.Errorf("vm: snapshot maps %d pages to %d frames", len(vpns), len(frames))
	}
	// Every allocation consumed one free-list slot and created one
	// mapping entry, so the counts must agree.
	if len(vpns) != nextFree {
		return fmt.Errorf("vm: snapshot maps %d pages but consumed %d frames", len(vpns), nextFree)
	}
	// allocFrame refills lazily, so the cursor is fully determined by
	// nextFree. Checking it before the replay keeps a corrupt cursor from
	// turning restore into a huge allocation.
	if want := t.refillsFor(nextFree); refills != want {
		return fmt.Errorf("vm: refill cursor %d inconsistent with %d allocated frames (want %d)", refills, nextFree, want)
	}
	for i := 0; i < refills; i++ {
		t.refillFreeList()
	}
	if nextFree > len(t.freeList) {
		return fmt.Errorf("vm: free-list cursor %d out of range [0,%d]", nextFree, len(t.freeList))
	}
	allocated := make(map[uint64]bool, nextFree)
	for _, f := range t.freeList[:nextFree] {
		allocated[f] = true
	}
	for i, vpn := range vpns {
		if i > 0 && vpns[i-1] >= vpn {
			return fmt.Errorf("vm: snapshot page numbers not strictly increasing")
		}
		// Each mapped frame must be one the replayed stream handed out,
		// exactly once — anything else is a silently-wrong snapshot.
		if !allocated[frames[i]] {
			return fmt.Errorf("vm: snapshot frame %#x for page %#x was never allocated (or allocated twice)", frames[i], vpn)
		}
		delete(allocated, frames[i])
		t.mapping[vpn] = frames[i]
	}
	t.nextFree = nextFree
	return nil
}

// refillsFor returns how many refills allocFrame performs to hand out n
// frames. Chunks are full-sized except the one that ends at the
// physical-memory boundary; past it, synthesised chunks are full again.
func (t *Translator) refillsFor(n int) int {
	chunks := func(k uint64) uint64 { return (k + freeListChunk - 1) / freeListChunk }
	if u := uint64(n); u > t.frames {
		return int(chunks(t.frames) + chunks(u-t.frames))
	}
	return int(chunks(uint64(n)))
}
