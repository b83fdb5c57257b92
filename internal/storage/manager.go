package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hique/internal/types"
)

// Manager is the storage manager: it owns the mapping between tables and
// their backing files and (de)serialises heaps (paper §IV: "each table
// resides in its own file on disk, and the system's storage manager is
// responsible for maintaining information on table/file associations and
// schemata").
type Manager struct {
	dir string
}

// NewManager creates a storage manager rooted at dir. The directory is
// created if missing.
func NewManager(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &Manager{dir: dir}, nil
}

// Dir returns the root directory.
func (m *Manager) Dir() string { return m.dir }

// PathFor returns the file path backing the named table.
func (m *Manager) PathFor(table string) string {
	return filepath.Join(m.dir, table+".tbl")
}

// fileMagic identifies HIQUE table files.
const fileMagic = "HIQT0001"

// Save writes the table to its backing file.
func (m *Manager) Save(t *Table) error {
	f, err := os.Create(m.PathFor(t.Name()))
	if err != nil {
		return fmt.Errorf("storage: save %s: %w", t.Name(), err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := writeTable(w, t); err != nil {
		return fmt.Errorf("storage: save %s: %w", t.Name(), err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("storage: save %s: %w", t.Name(), err)
	}
	return nil
}

// Load reads the named table from its backing file.
func (m *Manager) Load(name string) (*Table, error) {
	f, err := os.Open(m.PathFor(name))
	if err != nil {
		return nil, fmt.Errorf("storage: load %s: %w", name, err)
	}
	defer f.Close()
	t, err := readTable(bufio.NewReaderSize(f, 1<<20), name)
	if err != nil {
		return nil, fmt.Errorf("storage: load %s: %w", name, err)
	}
	return t, nil
}

// List returns the names of all tables present under the root directory.
func (m *Manager) List() ([]string, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".tbl") {
			names = append(names, strings.TrimSuffix(n, ".tbl"))
		}
	}
	return names, nil
}

// Drop removes the file backing the named table.
func (m *Manager) Drop(name string) error {
	if err := os.Remove(m.PathFor(name)); err != nil {
		return fmt.Errorf("storage: drop %s: %w", name, err)
	}
	return nil
}

// WriteTable serialises a table — magic, schema, then raw pages — for
// durability snapshots (the same framing Manager.Save uses on disk).
func WriteTable(w io.Writer, t *Table) error { return writeTable(w, t) }

// WriteSchema serialises just a schema — the WAL's CREATE TABLE record
// payload.
func WriteSchema(w io.Writer, s *types.Schema) error { return writeSchema(w, s) }

// ReadSchema deserialises a schema written by WriteSchema.
func ReadSchema(r io.Reader) (*types.Schema, error) { return readSchema(r) }

// ReadTable deserialises a table written by WriteTable, restoring page
// IDs from the page headers. It rejects a page whose header does not fit
// the schema (tuple size other than its width, more tuples than fit) and
// a row count the pages do not add up to.
func ReadTable(r io.Reader, name string) (*Table, error) { return readTable(r, name) }

func writeTable(w io.Writer, t *Table) error {
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return err
	}
	if err := writeSchema(w, t.Schema()); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(t.NumPages()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(t.NumRows()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for i := 0; i < t.NumPages(); i++ {
		if _, err := w.Write(t.Page(i).Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func readTable(r io.Reader, name string) (*Table, error) {
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	schema, err := readSchema(r)
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	numPages := int(binary.LittleEndian.Uint32(hdr[0:4]))
	numRows := int(binary.LittleEndian.Uint32(hdr[4:8]))
	t := NewTable(name, schema)
	t.pages = make([]*Page, 0, min(numPages, maxLoadPages))
	width := schema.TupleSize()
	// The pages load into slabs of up to maxLoadPages frames, one slab for
	// any table below 64 MB, so a scan of a loaded table streams through
	// memory; the cap bounds what a garbled page count allocates before
	// the read runs out.
	for i := 0; i < numPages; i += maxLoadPages {
		n := min(maxLoadPages, numPages-i)
		slab, frames := make([]byte, n*PageSize), make([]Page, n)
		if _, err := io.ReadFull(r, slab); err != nil {
			return nil, fmt.Errorf("pages %d-%d: %w", i, i+n-1, err)
		}
		for j := range frames {
			p := &frames[j]
			p.buf = frame(slab, j)
			if ts := p.TupleSize(); ts != width {
				return nil, fmt.Errorf("page %d: tuple size %d, schema width %d", i+j, ts, width)
			}
			if c := p.Capacity(); p.NumTuples() > c {
				return nil, fmt.Errorf("page %d: %d tuples, capacity %d", i+j, p.NumTuples(), c)
			}
			t.pages = append(t.pages, p)
			t.rows += p.NumTuples()
		}
	}
	if t.rows != numRows {
		return nil, fmt.Errorf("row count mismatch: header %d, pages %d", numRows, t.rows)
	}
	return t, nil
}

// maxLoadPages caps a load slab at 64 MB.
const maxLoadPages = 1 << 14

func writeSchema(w io.Writer, s *types.Schema) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(s.NumColumns()))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	for i := 0; i < s.NumColumns(); i++ {
		c := s.Column(i)
		var meta [8]byte
		binary.LittleEndian.PutUint32(meta[0:4], uint32(c.Kind))
		binary.LittleEndian.PutUint32(meta[4:8], uint32(c.Size))
		if _, err := w.Write(meta[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(n[:], uint32(len(c.Name)))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, c.Name); err != nil {
			return err
		}
	}
	return nil
}

func readSchema(r io.Reader) (*types.Schema, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	numCols := int(binary.LittleEndian.Uint32(n[:]))
	cols := make([]types.Column, numCols)
	for i := 0; i < numCols; i++ {
		var meta [8]byte
		if _, err := io.ReadFull(r, meta[:]); err != nil {
			return nil, err
		}
		kind := types.Kind(binary.LittleEndian.Uint32(meta[0:4]))
		size := int(binary.LittleEndian.Uint32(meta[4:8]))
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return nil, err
		}
		nameBytes := make([]byte, binary.LittleEndian.Uint32(n[:]))
		if _, err := io.ReadFull(r, nameBytes); err != nil {
			return nil, err
		}
		cols[i] = types.Column{Name: string(nameBytes), Kind: kind, Size: size}
	}
	return types.NewSchema(cols...), nil
}
