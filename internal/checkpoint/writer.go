package checkpoint

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// Writer serialises one component's section payload. All methods append
// little-endian encodings to an in-memory buffer and record a schema
// token per field; errors are sticky and surfaced by Err (component
// SaveState implementations end with `return w.Err()`).
//
// Collections must use the bulk ops (U64s, Ints, Bools, ...) rather than
// loops over scalar ops, so the schema token sequence stays independent
// of the collection's current size.
type Writer struct {
	buf    bytes.Buffer
	schema []schemaToken
	err    error
}

// schemaToken is one run-length-compressed field token: "u64" written
// three times in a row is recorded as {tok: "u64", n: 3}.
type schemaToken struct {
	tok string
	n   int
}

func (w *Writer) tok(t string) {
	if n := len(w.schema); n > 0 && w.schema[n-1].tok == t {
		w.schema[n-1].n++
		return
	}
	w.schema = append(w.schema, schemaToken{tok: t, n: 1})
}

// Err returns the first error encountered, or nil.
func (w *Writer) Err() error { return w.err }

// fieldString renders the recorded schema, e.g. "v1 u64*12 bools u64s".
func (w *Writer) fieldString() string {
	var sb strings.Builder
	for i, t := range w.schema {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.tok)
		if t.n > 1 {
			fmt.Fprintf(&sb, "*%d", t.n)
		}
	}
	return sb.String()
}

func (w *Writer) putUint(v uint64, bytes int) {
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], v)
	w.buf.Write(scratch[:bytes])
}

// Version records the component's payload format version; it must be the
// first field of every section.
func (w *Writer) Version(v uint16) {
	w.tok(fmt.Sprintf("v%d", v))
	w.putUint(uint64(v), 2)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.tok("u8"); w.putUint(uint64(v), 1) }

// U32 writes a uint32.
func (w *Writer) U32(v uint32) { w.tok("u32"); w.putUint(uint64(v), 4) }

// U64 writes a uint64.
func (w *Writer) U64(v uint64) { w.tok("u64"); w.putUint(v, 8) }

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.tok("i64"); w.putUint(uint64(v), 8) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.tok("i64"); w.putUint(uint64(int64(v)), 8) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	w.tok("bool")
	b := uint64(0)
	if v {
		b = 1
	}
	w.putUint(b, 1)
}

// String writes a length-prefixed string.
func (w *Writer) String(v string) {
	w.tok("str")
	w.putUint(uint64(len(v)), 4)
	w.buf.WriteString(v)
}

// U64s writes a length-prefixed []uint64 (one field in the schema,
// whatever the length).
func (w *Writer) U64s(v []uint64) {
	w.tok("u64s")
	w.putUint(uint64(len(v)), 4)
	for _, x := range v {
		w.putUint(x, 8)
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.tok("i64s")
	w.putUint(uint64(len(v)), 4)
	for _, x := range v {
		w.putUint(uint64(x), 8)
	}
}

// Ints writes a length-prefixed []int, each element as an int64.
func (w *Writer) Ints(v []int) {
	w.tok("i64s")
	w.putUint(uint64(len(v)), 4)
	for _, x := range v {
		w.putUint(uint64(int64(x)), 8)
	}
}

// Bools writes a length-prefixed, bit-packed []bool (LSB-first within
// each byte).
func (w *Writer) Bools(v []bool) {
	w.tok("bools")
	w.putUint(uint64(len(v)), 4)
	var cur byte
	for i, b := range v {
		if b {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			w.buf.WriteByte(cur)
			cur = 0
		}
	}
	if len(v)%8 != 0 {
		w.buf.WriteByte(cur)
	}
}

// SectionSchema is the golden-test view of one section: its ID and the
// run-length-compressed field token sequence its SaveState produced.
type SectionSchema struct {
	ID     string
	Fields string
}

// FileWriter accumulates sections and renders the container. Sections
// appear in the file (and in Schema) in Add order.
type FileWriter struct {
	ids      map[string]bool
	sections []fileSection
}

type fileSection struct {
	id      string
	payload []byte
	fields  string
}

// NewFileWriter returns an empty container builder.
func NewFileWriter() *FileWriter {
	return &FileWriter{ids: make(map[string]bool)}
}

// Add runs save against a fresh section Writer and appends the result
// under id. Section IDs must be unique, non-empty, and short.
func (fw *FileWriter) Add(id string, save func(*Writer) error) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("checkpoint: invalid section id %q", id)
	}
	if fw.ids[id] {
		return fmt.Errorf("checkpoint: duplicate section %q", id)
	}
	if len(fw.sections) >= maxSections {
		return fmt.Errorf("checkpoint: too many sections (max %d)", maxSections)
	}
	w := &Writer{}
	if err := save(w); err != nil {
		return fmt.Errorf("checkpoint: saving section %q: %w", id, err)
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("checkpoint: saving section %q: %w", id, err)
	}
	if w.buf.Len() > maxSectionBytes {
		return fmt.Errorf("checkpoint: section %q exceeds %d bytes", id, maxSectionBytes)
	}
	fw.ids[id] = true
	fw.sections = append(fw.sections, fileSection{id: id, payload: append([]byte(nil), w.buf.Bytes()...), fields: w.fieldString()})
	return nil
}

// Schema returns the per-section schemas in file order.
func (fw *FileWriter) Schema() []SectionSchema {
	out := make([]SectionSchema, len(fw.sections))
	for i, s := range fw.sections {
		out[i] = SectionSchema{ID: s.id, Fields: s.fields}
	}
	return out
}

// countingWriter tracks bytes written for WriteTo's contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// compressLevel is the gzip level of every container. Warm simulator
// state is mostly sparse tables, so BestSpeed costs little size and
// saves most of the encode time (DESIGN.md §7). Readers do not depend on
// the level: containers written at any level load.
const compressLevel = gzip.BestSpeed

// WriteTo renders the container: header, then the gzip-framed sections.
func (fw *FileWriter) WriteTo(out io.Writer) (int64, error) {
	cw := &countingWriter{w: out}
	var hdr [12]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	gz, err := gzip.NewWriterLevel(cw, compressLevel)
	if err != nil {
		return cw.n, err
	}
	var scratch [8]byte
	put := func(v uint64, n int) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := gz.Write(scratch[:n])
		return err
	}
	if err := put(uint64(len(fw.sections)), 4); err != nil {
		return cw.n, err
	}
	for _, s := range fw.sections {
		if err := put(uint64(len(s.id)), 2); err != nil {
			return cw.n, err
		}
		if _, err := io.WriteString(gz, s.id); err != nil {
			return cw.n, err
		}
		if err := put(uint64(len(s.payload)), 8); err != nil {
			return cw.n, err
		}
		if err := put(uint64(crc32.ChecksumIEEE(s.payload)), 4); err != nil {
			return cw.n, err
		}
		if _, err := gz.Write(s.payload); err != nil {
			return cw.n, err
		}
	}
	if err := gz.Close(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}
