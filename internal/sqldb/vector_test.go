package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the vectorized executor (vector.go, vecops.go): the
// row-vs-vector equivalence property over a randomized plan corpus with
// interleaved DML and forced sealing, the EXPLAIN / EXPLAIN ANALYZE
// surface, the accounting property through vecScanOp, the
// broken-kernel fault proof, and DISTINCT aggregation over a pooled scan.

// forceVector pins the vectorized executor on or off for one test.
func forceVector(t testing.TB, v bool) {
	t.Helper()
	old := vectorEnabled
	vectorEnabled = v
	t.Cleanup(func() { vectorEnabled = old })
}

// vecPred generates a random single-table predicate over v's columns,
// mixing shapes the kernel compiler accepts (comparisons, arithmetic,
// IS NULL, column-column) with shapes it must reject (modulo, LIKE) so
// the corpus exercises the row fallback alongside the kernels.
func vecPred(r *rand.Rand) string {
	atoms := []string{
		fmt.Sprintf("a > %d", r.Intn(40)),
		fmt.Sprintf("a = %d", r.Intn(40)),
		fmt.Sprintf("a <= %d", r.Intn(40)),
		fmt.Sprintf("f < %d.5", r.Intn(100)),
		fmt.Sprintf("f >= %d.25", r.Intn(100)),
		"f > a",
		"a IS NULL",
		"a IS NOT NULL",
		"f IS NULL",
		"ok",
		"NOT ok",
		fmt.Sprintf("a + 3 < %d", r.Intn(45)),
		fmt.Sprintf("a * 2 >= %d", r.Intn(80)),
		fmt.Sprintf("c = '%s'", []string{"ant", "bee", "cat"}[r.Intn(3)]),
		fmt.Sprintf("c < '%c'", 'b'+rune(r.Intn(3))),
		fmt.Sprintf("id %% %d = %d", 2+r.Intn(4), r.Intn(2)),
		fmt.Sprintf("c LIKE '%%%c%%'", 'a'+rune(r.Intn(5))),
		fmt.Sprintf("LENGTH(c) > %d", r.Intn(4)), // FuncCall: forces the row fallback
	}
	p := atoms[r.Intn(len(atoms))]
	for r.Intn(3) == 0 {
		op := "AND"
		if r.Intn(2) == 0 {
			op = "OR"
		}
		next := atoms[r.Intn(len(atoms))]
		if r.Intn(4) == 0 {
			next = "NOT (" + next + ")"
		}
		p = fmt.Sprintf("(%s %s %s)", p, op, next)
	}
	return p
}

// vecShapes is the plan corpus: bare scans, kernel-heavy projections,
// plain and grouped aggregation (with and without bare columns outside
// the aggregates), LIMIT/OFFSET early stops (the lazy
// accounting), sorts and DISTINCT above the vectorized scan, and index
// and hash joins (inner and LEFT, with a residual) probing its batches.
var vecShapes = []func(r *rand.Rand, pred string) string{
	func(r *rand.Rand, pred string) string {
		return "SELECT id, a, c FROM v WHERE " + pred
	},
	func(r *rand.Rand, pred string) string {
		return "SELECT a + id * 2, f, c FROM v WHERE " + pred
	},
	func(r *rand.Rand, pred string) string {
		return "SELECT COUNT(*), MIN(a), MAX(id), SUM(a), AVG(f) FROM v WHERE " + pred
	},
	func(r *rand.Rand, pred string) string {
		return "SELECT c, COUNT(*), SUM(id), MIN(f) FROM v WHERE " + pred + " GROUP BY c"
	},
	func(r *rand.Rand, pred string) string {
		// Bare columns read each group's representative (first) row.
		return "SELECT ok, a, f, COUNT(*) FROM v WHERE " + pred + " GROUP BY ok"
	},
	func(r *rand.Rand, pred string) string {
		return fmt.Sprintf("SELECT id, a FROM v WHERE %s LIMIT %d", pred, 1+r.Intn(30))
	},
	func(r *rand.Rand, pred string) string {
		return fmt.Sprintf("SELECT f * 2, c FROM v WHERE %s LIMIT %d OFFSET %d",
			pred, 1+r.Intn(20), r.Intn(10))
	},
	func(r *rand.Rand, pred string) string {
		return fmt.Sprintf("SELECT id, c FROM v WHERE %s ORDER BY id LIMIT %d", pred, 1+r.Intn(15))
	},
	func(r *rand.Rand, pred string) string {
		return "SELECT DISTINCT ok, c FROM v WHERE " + pred
	},
	// Joins with w: the batch engine probes on v's batches (vecJoin).
	func(r *rand.Rand, pred string) string {
		return fmt.Sprintf("SELECT v.id, v.a, w.g FROM v JOIN w ON v.a = w.k WHERE %s LIMIT %d", pred, 1+r.Intn(30))
	},
	func(r *rand.Rand, pred string) string {
		return "SELECT w.g, COUNT(*), SUM(v.f), MIN(v.id) FROM v LEFT JOIN w ON v.a = w.j AND v.f > w.k WHERE " + pred + " GROUP BY w.g"
	},
	func(r *rand.Rand, pred string) string {
		// v.c reads each group's representative joined row.
		return "SELECT w.g, v.c, COUNT(*), AVG(v.f) FROM v JOIN w ON v.a = w.k WHERE " + pred + " GROUP BY w.g"
	},
}

func vecQueryStrings(db *Database, q string) ([][]string, error) {
	res, err := db.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			if v.IsNull() {
				out[i][j] = "NULL"
			} else {
				out[i][j] = v.AsText()
			}
		}
	}
	return out, nil
}

// vectorRowProperty is the tentpole's core guarantee: over a randomized
// corpus of plans, with DML interleaved and cold blocks force-sealed
// mid-run, the vectorized executor and the row engine return
// row-for-row identical results and bit-identical accounting
// (RowsScanned, RowsEmitted, TombstonesSkipped — including under LIMIT
// early stops), and the per-operator EXPLAIN ANALYZE sums reconcile
// with the per-query totals on both engines.
func vectorRowProperty(r *rand.Rand, steps int) error {
	defer func(v bool) { vectorEnabled = v }(vectorEnabled)
	db := NewDatabase()
	db.MustExec("CREATE TABLE v (id INTEGER, a INTEGER, f FLOAT, c TEXT, ok BOOL)")
	db.MustExec("CREATE TABLE w (k INTEGER PRIMARY KEY, j INTEGER, g TEXT)")
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	for k := 0; k < 60; k++ {
		db.MustExec("INSERT INTO w VALUES (?, ?, ?)", k, k%30, words[k%len(words)])
	}
	nextID := 0
	mkRow := func() []any {
		var a any = r.Intn(40)
		if r.Intn(9) == 0 {
			a = nil
		}
		var fv any = float64(r.Intn(400)) / 4
		if r.Intn(11) == 0 {
			fv = nil
		}
		row := []any{nextID, a, fv, words[r.Intn(len(words))], r.Intn(2) == 1}
		nextID++
		return row
	}
	seed := make([][]any, 0, 2*segBlockSlots+100)
	for i := 0; i < 2*segBlockSlots+100; i++ {
		seed = append(seed, mkRow())
	}
	if err := db.InsertRows("v", seed); err != nil {
		return err
	}
	db.Seal() // the corpus starts against two sealed blocks plus a heap tail

	run := func(q string) ([][]string, QueryStats, uint64, error) {
		rows, err := vecQueryStrings(db, q)
		if err != nil {
			return nil, QueryStats{}, 0, err
		}
		a, err := db.ExplainAnalyze(context.Background(), q)
		if err != nil {
			return nil, QueryStats{}, 0, err
		}
		if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
			return nil, QueryStats{}, 0, fmt.Errorf(
				"accounting property violated for %q: per-operator scans %d != RowsScanned %d\n%s",
				q, got, want, strings.Join(a.Plan, "\n"))
		}
		return rows, a.Stats, a.rootRows(), nil
	}
	for step := 0; step < steps; step++ {
		switch r.Intn(6) {
		case 0, 1:
			if err := db.InsertRows("v", [][]any{mkRow(), mkRow()}); err != nil {
				return err
			}
		case 2:
			db.MustExec(fmt.Sprintf("UPDATE v SET a = %d WHERE id %% 13 = %d", r.Intn(40), r.Intn(13)))
		case 3:
			db.MustExec("DELETE FROM v WHERE id = ?", r.Intn(nextID))
		case 4:
			db.MustExec(fmt.Sprintf("UPDATE v SET f = f + 1 WHERE a = %d", r.Intn(40)))
		}
		if step%37 == 17 {
			db.Seal() // re-freeze whatever went cold since the last pass
		}
		q := vecShapes[step%len(vecShapes)](r, vecPred(r))

		vectorEnabled = false
		rowRes, rowStats, rowRoot, err := run(q)
		if err != nil {
			return fmt.Errorf("step %d (row engine): %v", step, err)
		}
		vectorEnabled = true
		vecRes, vecStats, vecRoot, err := run(q)
		if err != nil {
			return fmt.Errorf("step %d (vectorized): %v", step, err)
		}

		// Result rows are MVCC-stable, so they must match unconditionally.
		if len(rowRes) != len(vecRes) {
			return fmt.Errorf("step %d: %q returned %d rows vectorized, %d rows row-engine",
				step, q, len(vecRes), len(rowRes))
		}
		for i := range rowRes {
			if strings.Join(rowRes[i], "|") != strings.Join(vecRes[i], "|") {
				return fmt.Errorf("step %d: %q row %d diverged: vec %v vs row %v",
					step, q, i, vecRes[i], rowRes[i])
			}
		}
		// Accounting can legitimately shift while a background vacuum pass
		// clears dead versions (a reclaimed slot stops counting as a
		// tombstone). Bracket the vectorized run with a second row-engine
		// run: when the environment was stable across the window, the
		// vectorized counters must be bit-identical to the row engine's.
		vectorEnabled = false
		_, rowStats2, rowRoot2, err := run(q)
		if err != nil {
			return fmt.Errorf("step %d (row engine, bracket): %v", step, err)
		}
		vectorEnabled = true
		if rowStats != rowStats2 || rowRoot != rowRoot2 {
			continue // vacuum moved under us; skip the counter comparison
		}
		if rowStats.RowsScanned != vecStats.RowsScanned ||
			rowStats.RowsEmitted != vecStats.RowsEmitted ||
			rowStats.TombstonesSkipped != vecStats.TombstonesSkipped ||
			rowStats.FullScans != vecStats.FullScans ||
			rowRoot != vecRoot {
			return fmt.Errorf(
				"step %d: %q accounting diverged: vec {scanned %d emitted %d tomb %d full %d root %d} vs row {scanned %d emitted %d tomb %d full %d root %d}",
				step, q,
				vecStats.RowsScanned, vecStats.RowsEmitted, vecStats.TombstonesSkipped, vecStats.FullScans, vecRoot,
				rowStats.RowsScanned, rowStats.RowsEmitted, rowStats.TombstonesSkipped, rowStats.FullScans, rowRoot)
		}
	}
	return nil
}

func TestVectorRowEquivalence(t *testing.T) {
	lowerBatchMinRows(t, 1) // DML can drain every segment; keep vec live on the heap tail
	if err := vectorRowProperty(rand.New(rand.NewSource(21)), 160); err != nil {
		t.Fatal(err)
	}
}

// TestVectorEquivalenceCatchesBrokenKernel proves the property has
// teeth: with the comparison kernels deliberately inverted, the
// vectorized executor must diverge from the row engine and the property
// must report it.
func TestVectorEquivalenceCatchesBrokenKernel(t *testing.T) {
	lowerBatchMinRows(t, 1)
	debugBreakVectorKernel = true
	defer func() { debugBreakVectorKernel = false }()
	if err := vectorRowProperty(rand.New(rand.NewSource(21)), 160); err == nil {
		t.Fatal("equivalence property did not detect inverted comparison kernels")
	}
}

// TestMetamorphicNoRECAndTLPVectorized / ...RowEngine run the SQLancer
// metamorphic suite (NoREC + TLP with interleaved DML) with the
// vectorized executor forced on and forced off: the properties must hold
// on whichever engine serves each access path.
func TestMetamorphicNoRECAndTLPVectorized(t *testing.T) {
	forceVector(t, true)
	lowerBatchMinRows(t, 1) // the metamorphic corpus uses small tables
	if err := metamorphicProperty(rand.New(rand.NewSource(61)), 250, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicNoRECAndTLPRowEngine(t *testing.T) {
	forceVector(t, false)
	if err := metamorphicProperty(rand.New(rand.NewSource(61)), 250, 0); err != nil {
		t.Fatal(err)
	}
}

// TestVectorExplainShapes pins the plan surface: EXPLAIN shows the
// vectorized scan with its fused filters and marks vectorized
// projections and aggregations; EXPLAIN ANALYZE adds batch and
// segment-decode counts once blocks are sealed.
func TestVectorExplainShapes(t *testing.T) {
	forceVector(t, true)
	db := sealedTestDB(t, 2)

	plan := func(q string) string {
		lines, err := db.Explain(q)
		if err != nil {
			t.Fatalf("Explain(%q): %v", q, err)
		}
		return strings.Join(lines, "\n")
	}
	scanPlan := plan("SELECT id, a FROM s WHERE a > 10 AND c = 'ant'")
	if !strings.Contains(scanPlan, "vectorized seq scan") {
		t.Fatalf("plan missing vectorized seq scan:\n%s", scanPlan)
	}
	if !strings.Contains(scanPlan, "fused filter") {
		t.Fatalf("plan missing fused filter:\n%s", scanPlan)
	}
	if !strings.Contains(plan("SELECT a + 1, f FROM s WHERE a > 10"), "(vectorized)") {
		t.Fatal("vectorized projection not marked in plan")
	}
	if !strings.Contains(plan("SELECT c, COUNT(*), MIN(a) FROM s WHERE a > 10 GROUP BY c"), "(vectorized)") {
		t.Fatal("vectorized aggregation not marked in plan")
	}
	// A join whose probe input is the batch scan probes on its batches,
	// and an aggregate above it folds the joined chunks.
	db.MustExec("CREATE TABLE d (k INTEGER PRIMARY KEY, w TEXT)")
	for k := 0; k < 50; k++ {
		db.MustExec("INSERT INTO d VALUES (?, ?)", k, fmt.Sprintf("w%d", k%4))
	}
	joinPlan := plan("SELECT d.w, COUNT(*), SUM(s.f) FROM s JOIN d ON s.a = d.k WHERE s.ok GROUP BY d.w")
	for _, line := range []string{
		"hash aggregate by d.w (vectorized)",
		"index nested loop join on s.a = d.k (index auto_d_k on d) (batched)",
		"vectorized seq scan s (as s)",
	} {
		if !strings.Contains(joinPlan, line) {
			t.Fatalf("join plan missing %q:\n%s", line, joinPlan)
		}
	}
	if !strings.Contains(plan("SELECT s.id, d.w FROM s JOIN d ON s.a = d.k AND s.f > 3"),
		"(index auto_d_k on d) (batched) residual (s.f > 3)") {
		t.Fatal("batched join probe with residual not marked in plan")
	}

	a, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM s WHERE a < 50")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(a.Plan, "\n")
	if !strings.Contains(text, "batches=") {
		t.Fatalf("analyzed plan missing batches=:\n%s", text)
	}
	if !strings.Contains(text, "decoded_blocks=2") {
		t.Fatalf("analyzed plan missing decoded_blocks=2:\n%s", text)
	}
	if a.Stats.VectorBatches == 0 || a.Stats.SegmentScans != 1 || a.Stats.DecodedBlocks != 2 {
		t.Fatalf("analyzed stats = %+v, want vector batches and 2 decoded blocks", a.Stats)
	}
	if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
		t.Fatalf("scannedTotal %d != RowsScanned %d", got, want)
	}

	// The row engine must leave no vectorized markers behind.
	forceVector(t, false)
	rowPlan := plan("SELECT id, a FROM s WHERE a > 10")
	if strings.Contains(rowPlan, "vectorized") {
		t.Fatalf("row-engine plan mentions vectorized:\n%s", rowPlan)
	}
}

// TestVectorRowFallbackCounter: a plan whose shape qualifies but whose
// expressions cannot compile to kernels must fall back to the row tree
// and count the fallback.
func TestVectorRowFallbackCounter(t *testing.T) {
	forceVector(t, true)
	db := sealedTestDB(t, 1)
	before := db.Stats().RowFallbacks
	rows := queryStrings(t, db, "SELECT COUNT(*) FROM s WHERE LENGTH(c) > 2")
	if rows[0][0] == "0" {
		t.Fatal("fallback query returned no rows")
	}
	if after := db.Stats().RowFallbacks; after <= before {
		t.Fatalf("RowFallbacks did not advance: %d -> %d", before, after)
	}
}

// ---------------------------------------------------------------------------
// Aggregates that cannot merge partial states

// TestUnorderedGatherAggEquivalence: a DISTINCT aggregate cannot merge
// partial states, so on a pooled database its batch fold runs on the
// owner goroutine, in scan order. The results must equal the serial
// engine's on every run.
func TestUnorderedGatherAggEquivalence(t *testing.T) {
	lowerBatchMinRows(t, 8)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(31))
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	rows := make([][]any, 0, 3000)
	for i := 0; i < 3000; i++ {
		var a any = r.Intn(50)
		if r.Intn(8) == 0 {
			a = nil
		}
		rows = append(rows, []any{i, a, words[r.Intn(len(words))], r.Intn(2) == 1})
	}
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE u (id INTEGER, a INTEGER, c TEXT, ok BOOL)")
		if err := db.InsertRows("u", rows); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"SELECT COUNT(DISTINCT a) FROM u",
		"SELECT COUNT(DISTINCT c), MIN(a), MAX(a) FROM u WHERE a < 40",
		"SELECT COUNT(DISTINCT a), MAX(DISTINCT c) FROM u WHERE ok",
		"SELECT MIN(DISTINCT a), COUNT(DISTINCT id) FROM u WHERE a IS NOT NULL",
	}
	plan, err := par.Explain(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(plan, "\n"); !strings.Contains(text, "aggregate (single group) (vectorized)") {
		t.Fatalf("DISTINCT aggregate did not plan the owner-side batch fold:\n%s", text)
	}
	for round := 0; round < 8; round++ {
		for _, q := range queries {
			want := strings.Join(queryStrings(t, ser, q)[0], "|")
			got := strings.Join(queryStrings(t, par, q)[0], "|")
			if got != want {
				t.Fatalf("round %d: %q diverged: parallel %q vs serial %q", round, q, got, want)
			}
		}
		// Churn between rounds so later rounds see tombstones and fresh rows.
		dml := fmt.Sprintf("UPDATE u SET a = %d WHERE id %% 17 = %d", r.Intn(50), r.Intn(17))
		par.MustExec(dml)
		ser.MustExec(dml)
	}
	assertNoWorkerLeak(t)
}
