package storage

import (
	"bytes"
	"slices"
	"testing"

	"hique/internal/types"
)

// FuzzTableOps runs a random sequence of Append, AppendSlots, Compact,
// Truncate and a WriteTable → ReadTable round trip over a base table and
// a [][]byte model of its rows. After every step the table must hold the
// model's rows in order and count them, every page must be exactly one
// PageSize frame at its position, and no two frames — live pages and the
// spares Compact cut — may share a byte: the guard against extents
// handing out one frame twice or a page writing into its neighbour.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 200, 1, 90, 2, 3, 4, 0, 50, 3, 0, 9})
	f.Add([]byte{0, 255, 0, 255, 2, 1, 2, 0, 1, 40, 4, 2, 2})
	f.Add([]byte{1, 255, 1, 255, 1, 255, 2, 7, 0, 30, 4, 3})
	s := types.NewSchema(types.Col("id", types.Int), types.CharCol("pad", 120))
	w := s.TupleSize()
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 80)] // 40 steps: the checks after each stay cheap
		tbl := NewTable("f", s)
		var model [][]byte
		next := int64(0)
		row := func() []byte {
			r := make([]byte, w)
			types.PutInt(r, 0, next)
			copy(r[8:], bytes.Repeat([]byte{byte(next)}, w-8))
			next++
			return r
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0: // Append arg rows
				for range arg {
					r := row()
					tbl.Append(r)
					model = append(model, r)
				}
			case 1: // AppendSlots for up to arg+1 rows
				slots, k := tbl.AppendSlots(arg + 1)
				for j := range k {
					r := row()
					copy(slots[j*w:], r)
					model = append(model, r)
				}
			case 2: // Compact: drop ids ≡ 0 mod arg%7+2, skip pages ≡ arg mod 3
				m, sk := int64(arg%7+2), arg%3
				var kept [][]byte
				pos := 0
				for pi := range tbl.NumPages() {
					n := tbl.Page(pi).NumTuples()
					for _, r := range model[pos : pos+n] {
						if pi%3 == sk || types.GetInt(r, 0)%m != 0 {
							kept = append(kept, r)
						}
					}
					pos += n
				}
				tbl.Compact(func(pi int) bool { return pi%3 == sk }, func(tu []byte) bool { return types.GetInt(tu, 0)%m == 0 })
				model = kept
			case 3:
				tbl.Truncate()
				model = nil
			case 4:
				var buf bytes.Buffer
				if err := WriteTable(&buf, tbl); err != nil {
					t.Fatal(err)
				}
				got, err := ReadTable(&buf, "f")
				if err != nil {
					t.Fatalf("ReadTable: %v", err)
				}
				tbl = got
			}
			checkTable(t, tbl, model)
		}
	})
}

func checkTable(t *testing.T, tbl *Table, model [][]byte) {
	t.Helper()
	if tbl.NumRows() != len(model) {
		t.Fatalf("NumRows = %d, model holds %d", tbl.NumRows(), len(model))
	}
	r := 0
	tbl.Scan(func(tu []byte) bool {
		if !bytes.Equal(tu, model[r]) {
			t.Fatalf("row %d = id %d, model id %d", r, types.GetInt(tu, 0), types.GetInt(model[r], 0))
		}
		r++
		return true
	})
	if r != len(model) {
		t.Fatalf("Scan saw %d rows, model holds %d", r, len(model))
	}
	frames := slices.Clone(tbl.spare)
	for pi := range tbl.NumPages() {
		p := tbl.Page(pi)
		if len(p.Bytes()) != PageSize || cap(p.Bytes()) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want %d", pi, len(p.Bytes()), cap(p.Bytes()), PageSize)
		}
		if p.ID() != pi {
			t.Fatalf("page %d carries ID %d", pi, p.ID())
		}
		frames = append(frames, p)
	}
	slices.SortFunc(frames, func(a, b *Page) int { return int(start(a) - start(b)) })
	for i := 1; i < len(frames); i++ {
		if start(frames[i]) < start(frames[i-1])+PageSize {
			t.Fatalf("two frames share bytes: %#x and %#x", start(frames[i-1]), start(frames[i]))
		}
	}
}
