package checkpoint

import (
	"bytes"
	"compress/gzip"
	"io"
	"slices"
	"strings"
	"testing"
)

// buildTestContainer renders a two-section container exercising every
// primitive, returning the bytes.
func buildTestContainer(t *testing.T) []byte {
	t.Helper()
	fw := NewFileWriter()
	err := fw.Add("alpha", func(w *Writer) error {
		w.Version(1)
		w.U8(7)
		w.U32(0xDEADBEEF)
		w.U64(1 << 60)
		w.I64(-42)
		w.Int(-7)
		w.Bool(true)
		w.Bool(false)
		w.String("hello, checkpoint")
		w.U64s([]uint64{1, 2, 3})
		w.I64s([]int64{-1, 0, 1})
		w.Ints([]int{10, -10})
		w.Bools([]bool{true, false, true, true, false, true, false, false, true})
		return w.Err()
	})
	if err != nil {
		t.Fatalf("Add(alpha): %v", err)
	}
	err = fw.Add("beta", func(w *Writer) error {
		w.Version(3)
		w.U64s(nil)
		w.Bools(nil)
		return w.Err()
	})
	if err != nil {
		t.Fatalf("Add(beta): %v", err)
	}
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildTestContainer(t)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	if got := fr.Sections(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Sections() = %v", got)
	}
	r, err := fr.Section("alpha")
	if err != nil {
		t.Fatalf("Section(alpha): %v", err)
	}
	r.Version(1)
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool pair mismatch")
	}
	if s := r.String(); s != "hello, checkpoint" {
		t.Errorf("String = %q", s)
	}
	if v := r.U64s(); len(v) != 3 || v[2] != 3 {
		t.Errorf("U64s = %v", v)
	}
	if v := r.I64s(); len(v) != 3 || v[0] != -1 {
		t.Errorf("I64s = %v", v)
	}
	if v := r.Ints(); len(v) != 2 || v[1] != -10 {
		t.Errorf("Ints = %v", v)
	}
	want := []bool{true, false, true, true, false, true, false, false, true}
	got := r.Bools()
	if len(got) != len(want) {
		t.Fatalf("Bools len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Bools[%d] = %v", i, got[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close(alpha): %v", err)
	}

	r, err = fr.Section("beta")
	if err != nil {
		t.Fatalf("Section(beta): %v", err)
	}
	r.Version(3)
	if v := r.U64s(); len(v) != 0 {
		t.Errorf("empty U64s = %v", v)
	}
	if v := r.Bools(); len(v) != 0 {
		t.Errorf("empty Bools = %v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close(beta): %v", err)
	}
}

func TestSchemaTokens(t *testing.T) {
	fw := NewFileWriter()
	err := fw.Add("s", func(w *Writer) error {
		w.Version(1)
		w.U64(0)
		w.U64(1)
		w.U64(2)
		w.Bools(nil)
		w.U64s(nil)
		w.Int(5)
		return w.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	sch := fw.Schema()
	if len(sch) != 1 || sch[0].ID != "s" {
		t.Fatalf("Schema = %+v", sch)
	}
	if want := "v1 u64*3 bools u64s i64"; sch[0].Fields != want {
		t.Errorf("Fields = %q, want %q", sch[0].Fields, want)
	}
}

func TestVersionMismatch(t *testing.T) {
	data := buildTestContainer(t)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fr.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	r.Version(1) // section was written as version 3
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "version") {
		t.Errorf("expected version mismatch, got %v", r.Err())
	}
}

func TestCloseDetectsUnconsumed(t *testing.T) {
	data := buildTestContainer(t)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fr.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	r.Version(1)
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("Close on partially consumed section: %v", err)
	}
}

func TestStickyTruncation(t *testing.T) {
	r := &Reader{id: "t", data: []byte{1, 0}}
	r.Version(1)
	_ = r.U64() // only 0 bytes left
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	if v := r.U32(); v != 0 {
		t.Errorf("post-error read = %d, want 0", v)
	}
}

func TestBoundedCollectionLength(t *testing.T) {
	// A collection claiming 2^31 elements with 4 bytes of backing data
	// must error, not allocate.
	r := &Reader{id: "t", data: []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4}}
	if v := r.U64s(); v != nil {
		t.Errorf("U64s = %v", v)
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds") {
		t.Errorf("err = %v", r.Err())
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	fw := NewFileWriter()
	save := func(w *Writer) error { w.Version(1); return w.Err() }
	if err := fw.Add("dup", save); err != nil {
		t.Fatal(err)
	}
	if err := fw.Add("dup", save); err == nil {
		t.Error("duplicate Add accepted")
	}
}

func TestMissingSection(t *testing.T) {
	data := buildTestContainer(t)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Section("gamma"); err == nil {
		t.Error("missing section lookup succeeded")
	}
}

func TestBadMagic(t *testing.T) {
	data := buildTestContainer(t)
	data[0] ^= 0xFF
	if _, err := NewFileReader(bytes.NewReader(data)); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestEveryBitFlipDetectedOrHarmless(t *testing.T) {
	data := buildTestContainer(t)
	orig, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at every position across the whole file — header,
	// gzip framing, and compressed payload — and require each mutant to
	// either be rejected or parse to byte-identical sections. The
	// container header is covered by the magic and version checks, the
	// stream by gzip's checksum, and each payload by its section CRC;
	// the only undetectable flips live in gzip header metadata (mtime,
	// OS byte), which carry no state.
	for pos := 0; pos < len(data); pos++ {
		for _, bit := range []uint{0, 3, 7} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			fr, err := NewFileReader(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			ids := fr.Sections()
			if len(ids) != len(orig.Sections()) {
				t.Fatalf("bit flip at byte %d bit %d: section list changed silently", pos, bit)
			}
			for _, id := range ids {
				a, errA := orig.Section(id)
				b, errB := fr.Section(id)
				if errA != nil || errB != nil || !bytes.Equal(a.data, b.data) {
					t.Fatalf("bit flip at byte %d bit %d: section %q changed silently", pos, bit, id)
				}
			}
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	data := buildTestContainer(t)
	for _, n := range []int{0, 5, 11, 12, 13, len(data) / 2, len(data) - 1} {
		if _, err := NewFileReader(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestDefaultLevelContainersLoad(t *testing.T) {
	// Every container written before compressLevel was BestSpeed used
	// gzip's default level. Re-compress a FileWriter container's stream
	// at that level: it must decode to the same sections and payloads.
	fw := NewFileWriter()
	err := fw.Add("table", func(w *Writer) error {
		w.Version(1)
		vals := make([]uint64, 1<<14)
		for i := range vals {
			vals[i] = uint64(i*i) % 977 // compressible, but not trivially
		}
		w.U64s(vals)
		w.String("warm state")
		return w.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, c := range [][]byte{data, buildTestContainer(t)} {
		zr, err := gzip.NewReader(bytes.NewReader(c[12:]))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.NewBuffer(append([]byte(nil), c[:12]...))
		zw := gzip.NewWriter(old) // gzip.DefaultCompression
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(old.Bytes(), c) {
			t.Fatal("re-compressed container is byte-identical; the test exercises nothing")
		}
		want, err := NewFileReader(bytes.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewFileReader(bytes.NewReader(old.Bytes()))
		if err != nil {
			t.Fatalf("default-level container rejected: %v", err)
		}
		if !slices.Equal(got.Sections(), want.Sections()) {
			t.Fatalf("sections %v, want %v", got.Sections(), want.Sections())
		}
		for _, id := range want.Sections() {
			if !bytes.Equal(got.byID[id], want.byID[id]) {
				t.Errorf("section %q: payload differs", id)
			}
		}
	}
}
