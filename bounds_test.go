package hique

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hique/internal/core"
	"hique/internal/plan"
	"hique/internal/volcano"
)

// TestPageBoundsFollowWrites drives a seeded random walk of INSERT,
// DELETE, UPDATE and DELETE-all statements over a table whose keys mostly
// arrive in order, so that reads and writes really skip pages. After every
// statement the statistics and every page's bounds must equal a recompute
// over the heap (statsDB), every page must be settled again, and pruned
// reads must return what the iterator engine — which never prunes —
// returns over the same catalogue. A write cut short by a panic mid-apply
// (recountOnPanic) must leave bounds that still agree with the heap.
func TestPageBoundsFollowWrites(t *testing.T) {
	db := statsDB{Open(WithParallelism(3)), t}
	if err := db.CreateTable("pb", Int("k"), Date("d"), Float("f"), Char("c", 4)); err != nil {
		t.Fatal(err)
	}
	oracle := Open(WithCatalog(db.Catalog()), WithEngine(volcano.NewOptimized()))
	e, err := db.cat.Lookup("pb")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(29))
	next := int64(0) // the next in-order key
	exec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%.80s: %v", q, err)
		}
	}
	insert := func(n int) {
		var b strings.Builder
		b.WriteString("INSERT INTO pb VALUES ")
		for i := 0; i < n; i++ {
			k := next
			next++
			if r.Intn(40) == 0 {
				k = int64(r.Intn(int(next) + 50)) // out of order
			}
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d.5, 'c%d')", k, 9000+k/3, k%7, k%5)
		}
		exec(b.String())
	}
	key := func() int64 { return int64(r.Intn(int(next) + 20)) }
	skipped0 := core.SkippedPages()
	check := func(step string) {
		t.Helper()
		if n := e.Table.NumPages(); n > 0 && e.Table.PageBounds(n-1) == nil {
			t.Fatalf("%s: the last of %d pages is not settled", step, n)
		}
		lo := key()
		hi := lo + int64(r.Intn(400))
		for _, q := range []string{
			fmt.Sprintf("SELECT k, d, c FROM pb WHERE k >= %d AND k < %d", lo, hi),
			fmt.Sprintf("SELECT k, f FROM pb WHERE k = %d", lo),
			fmt.Sprintf("SELECT COUNT(*) AS n, SUM(f) AS s FROM pb WHERE d <= %d", 9000+lo/3),
			fmt.Sprintf("SELECT c, COUNT(*) AS n FROM pb WHERE k > %d AND d < %d GROUP BY c ORDER BY c", lo, 9000+hi/3),
		} {
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, q, err)
			}
			want, err := oracle.Query(q)
			if err != nil {
				t.Fatalf("%s: oracle: %s: %v", step, q, err)
			}
			if g, w := sortedRows(got.Rows), sortedRows(want.Rows); g != w {
				t.Fatalf("%s: %s:\n got  %s\n want %s", step, q, g, w)
			}
		}
	}

	insert(900)
	check("seed")
	for step := 0; step < 250; step++ {
		var name string
		switch op := r.Intn(20); {
		case op < 9:
			insert(1 + r.Intn(60))
			name = "insert"
		case op < 13:
			lo := key()
			exec(fmt.Sprintf("DELETE FROM pb WHERE k >= %d AND k < %d", lo, lo+int64(r.Intn(80))))
			name = "delete a range"
		case op < 14:
			exec(fmt.Sprintf("DELETE FROM pb WHERE k > %d", next-int64(r.Intn(30))))
			name = "delete the tail"
		case op < 17:
			lo := key()
			exec(fmt.Sprintf("UPDATE pb SET k = %d WHERE k >= %d AND k < %d", key(), lo, lo+int64(r.Intn(20))))
			name = "update the key"
		case op < 19:
			exec(fmt.Sprintf("UPDATE pb SET f = 1.25, d = %d WHERE d = %d", 8000+r.Intn(50), 9000+key()/3))
			name = "update a date"
		default:
			exec("DELETE FROM pb")
			name = "delete all"
		}
		check(fmt.Sprintf("step %d (%s)", step, name))
		if e.Table.NumRows() < 200 {
			insert(400)
			check(fmt.Sprintf("step %d (refill)", step))
		}
	}
	if core.SkippedPages() == skipped0 {
		t.Fatal("no page loop skipped a page: the walk does not exercise pruning")
	}

	// An UPDATE that panics after writing the key of its first victim: the
	// contained statement recounts, and the bounds follow the heap.
	lo := next / 2
	wp, err := db.planWrite(fmt.Sprintf("UPDATE pb SET k = %d WHERE k >= %d", -next, lo))
	if err != nil {
		t.Fatal(err)
	}
	wp.Sets = append(wp.Sets, plan.SetColumn{Col: 99})
	e.Lock()
	if _, _, err := db.applyLocked(e, wp, 0, nil); !errors.As(err, new(*PanicError)) {
		t.Fatalf("applyLocked = %v, want a contained panic", err)
	}
	checkStats(t, db.DB)
	check("after a contained panic mid-UPDATE")
}

// sortedRows renders a result's rows as a sorted multiset.
func sortedRows(rows [][]any) string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = fmt.Sprint(row)
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}
