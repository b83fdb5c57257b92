package storage

import (
	"encoding/binary"
	"testing"

	"hique/internal/types"
)

// BenchmarkTableScan is the scan floor: a one-column sum over about 50 MB
// of 90-byte tuples, in ns per page. The table fills alternately with a
// second one, one row there per four here, through AppendRow, the way the
// TPC-H generator builds orders and lineitem: a table whose pages were
// scattered over the heap by its neighbour's appends and the encoding's
// garbage shows here as a slower page.
func BenchmarkTableScan(b *testing.B) {
	wide := NewTable("wide", types.NewSchema(
		types.Col("k", types.Int), types.Col("v", types.Float), types.CharCol("pad", 74)))
	side := NewTable("side", types.NewSchema(types.Col("k", types.Int), types.CharCol("pad", 40)))
	for i := 0; wide.NumPages() < 50<<20/PageSize; i++ {
		if i%4 == 0 {
			side.AppendRow(types.IntDatum(int64(i)), types.StringDatum("side"))
		}
		wide.AppendRow(types.IntDatum(int64(i)), types.FloatDatum(float64(i)), types.StringDatum("pad"))
	}
	w := wide.Schema().TupleSize()
	b.ResetTimer()
	var sum int64
	for range b.N {
		for pi := range wide.NumPages() {
			p := wide.Page(pi)
			data := p.Data()
			for i := range p.NumTuples() {
				sum += int64(binary.LittleEndian.Uint64(data[i*w:]))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wide.NumPages()), "ns/page")
	if sum == 0 {
		b.Fatal("empty sum")
	}
}
