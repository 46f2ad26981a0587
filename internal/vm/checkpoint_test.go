package vm

import (
	"bytes"
	"runtime"
	"testing"

	"bingo/internal/checkpoint"
	"bingo/internal/mem"
)

// vmSection round-trips one translator section through a checkpoint
// container and returns the reader for it.
func vmSection(t *testing.T, save func(*checkpoint.Writer) error) *checkpoint.Reader {
	t.Helper()
	fw := checkpoint.NewFileWriter()
	if err := fw.Add("vm", save); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fr, err := checkpoint.NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fr.Section("vm")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRefillsForMatchesAllocation pins the closed-form refill count
// against what allocFrame actually does, below, at and past the
// physical-memory boundary (where the last real chunk is partial).
func TestRefillsForMatchesAllocation(t *testing.T) {
	const frames = freeListChunk + freeListChunk/2
	tr := MustTranslator(frames*DefaultPageSize, DefaultPageSize, 3)
	checkpoints := map[int]bool{0: true, 1: true, freeListChunk: true, freeListChunk + 1: true,
		frames: true, frames + 1: true, frames + freeListChunk: true, frames + freeListChunk + 1: true}
	for n := 0; n <= frames+freeListChunk+1; n++ {
		if checkpoints[n] {
			if got, want := tr.refillsFor(n), tr.refills; got != want {
				t.Fatalf("refillsFor(%d) = %d, allocator performed %d refills", n, got, want)
			}
		}
		tr.Translate(mem.Addr(uint64(n) * DefaultPageSize))
	}
}

// TestLoadStateRoundTrip restores a translator that crossed the
// physical-memory boundary and checks it continues the same frame stream.
func TestLoadStateRoundTrip(t *testing.T) {
	const frames = freeListChunk + 100
	orig := MustTranslator(frames*DefaultPageSize, DefaultPageSize, 5)
	for p := uint64(0); p < frames+10; p++ {
		orig.Translate(mem.Addr(p * DefaultPageSize))
	}
	restored := MustTranslator(frames*DefaultPageSize, DefaultPageSize, 5)
	if err := restored.LoadState(vmSection(t, orig.SaveState)); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	for p := uint64(frames + 10); p < frames+20; p++ {
		va := mem.Addr(p * DefaultPageSize)
		if a, b := orig.Translate(va), restored.Translate(va); a != b {
			t.Fatalf("page %d: restored translator maps to %#x, original to %#x", p, b, a)
		}
	}
}

// TestLoadStateRejectsCorruptRefillCursor feeds a crafted section with
// no mapped pages but a refill cursor of 2048. Replaying it would
// allocate 2048 chunks of 64Ki frames, gigabytes, for a translator that
// handed out nothing, so it must be rejected before any replay.
func TestLoadStateRejectsCorruptRefillCursor(t *testing.T) {
	r := vmSection(t, func(w *checkpoint.Writer) error {
		w.Version(1)
		w.U64s(nil) // vpns
		w.U64s(nil) // frames
		w.Int(0)    // nextFree
		w.Int(2048) // refills
		return w.Err()
	})
	tr := MustTranslator(1<<30, DefaultPageSize, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := tr.LoadState(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("LoadState accepted a refill cursor no allocation sequence can produce")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 4<<20 {
		t.Fatalf("LoadState allocated %d bytes before rejecting the cursor", delta)
	}
}
