// Package storage implements HIQUE's N-ary Storage Model (NSM) layer:
// fixed-size slotted pages of 4096 bytes, heap tables built from pages, and
// a storage manager that maps tables to files on disk (paper §IV).
//
// Tuples within a page are stored consecutively, so the i-th tuple of a page
// lives at data[HeaderSize + i*tupleSize] — the array layout the generated
// code exploits through direct offset arithmetic (paper Listing 1).
//
// Callers: base tables are owned by the catalogue (internal/catalog) and
// mutated only under their entry's writer lock; engines read them under
// reader locks held by hique.DB for the whole plan+execute+materialise
// span. Transient tables — staged intermediates, sorted copies, partition
// sets, materialised results — draw their frames from the process-wide
// page arena (pool.go): NewPooledTable acquires, Release returns, and
// ownership is explicit — exactly one owner per acquisition, release only
// after the last read, never while the tuples might still be aliased
// (identity-elided stages alias base pages, which is why materialisation
// happens under the table locks). ArenaStats exposes the gets−puts
// balance; a quiesced serving path drives it back to zero.
package storage

import (
	"encoding/binary"
	"fmt"
)

const (
	// PageSize is the physical page size in bytes (paper §IV).
	PageSize = 4096
	// HeaderSize is the page header: numTuples (4), tupleSize (4),
	// pageID (4), reserved (4).
	HeaderSize = 16
)

// Page is a single NSM page. The zero value is not usable; create pages
// through NewPage or a table's appends. buf is exactly PageSize bytes and
// its capacity ends there too: a page cut from an extent never reaches
// into its neighbour.
type Page struct {
	buf []byte
}

// NewPage allocates an empty page for tuples of the given width. A width
// of zero is legal: group-less aggregates stage attribute-free tuples, so
// a zero-width page is pure row counting.
func NewPage(tupleSize int) *Page {
	if tupleSize < 0 || tupleSize > PageSize-HeaderSize {
		panic(fmt.Sprintf("storage.NewPage: tuple size %d out of range", tupleSize))
	}
	p := &Page{buf: make([]byte, PageSize)}
	p.init(tupleSize, 0)
	return p
}

// frame is the i-th PageSize frame of an extent, its capacity bounded at
// the frame's end.
func frame(ext []byte, i int) []byte {
	return ext[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
}

// init empties the page and sets its header for tuples of the given
// width at position id. The tuple area keeps its bytes: NumTuples governs
// validity and every append overwrites its slot.
func (p *Page) init(tupleSize, id int) {
	p.setNumTuples(0)
	binary.LittleEndian.PutUint32(p.buf[4:8], uint32(tupleSize))
	p.setID(id)
}

// NumTuples returns the number of tuples stored in the page.
func (p *Page) NumTuples() int {
	return int(binary.LittleEndian.Uint32(p.buf[0:4]))
}

// TupleSize returns the width of each tuple in the page.
func (p *Page) TupleSize() int {
	return int(binary.LittleEndian.Uint32(p.buf[4:8]))
}

// ID returns the page's position within its table.
func (p *Page) ID() int {
	return int(binary.LittleEndian.Uint32(p.buf[8:12]))
}

func (p *Page) setID(id int) {
	binary.LittleEndian.PutUint32(p.buf[8:12], uint32(id))
}

func (p *Page) setNumTuples(n int) {
	binary.LittleEndian.PutUint32(p.buf[0:4], uint32(n))
}

// Capacity returns how many tuples fit in the page. Zero-width tuples
// occupy no data bytes; their capacity is one count per data byte so the
// page count stays bounded.
func (p *Page) Capacity() int {
	ts := p.TupleSize()
	if ts == 0 {
		return PageSize - HeaderSize
	}
	return (PageSize - HeaderSize) / ts
}

// Full reports whether the page has no room for another tuple.
func (p *Page) Full() bool { return p.NumTuples() >= p.Capacity() }

// Tuple returns the i-th tuple as a sub-slice of the page buffer. The slice
// aliases page memory: callers must copy it if they outlive the page.
func (p *Page) Tuple(i int) []byte {
	ts := p.TupleSize()
	off := HeaderSize + i*ts
	return p.buf[off : off+ts : off+ts]
}

// Data returns the raw tuple area of the page (everything after the header).
// The generated scan code iterates this region with pointer arithmetic.
func (p *Page) Data() []byte { return p.buf[HeaderSize:] }

// Bytes returns the full page buffer, header included.
func (p *Page) Bytes() []byte { return p.buf }

// Append copies tuple into the next free slot. It reports false when the
// page is full.
func (p *Page) Append(tuple []byte) bool {
	ts := p.TupleSize()
	if len(tuple) != ts {
		panic(fmt.Sprintf("storage.Page.Append: tuple size %d, page expects %d", len(tuple), ts))
	}
	n := p.NumTuples()
	if n >= p.Capacity() {
		return false
	}
	copy(p.buf[HeaderSize+n*ts:], tuple)
	p.setNumTuples(n + 1)
	return true
}

// Reset clears the page's tuple count so the buffer can be reused.
func (p *Page) Reset() { p.setNumTuples(0) }
