package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for parallel execution (parallel.go, vecops.go): the serial vs
// parallel plan-equivalence property, cancellation and cursor-abandonment
// worker hygiene, EXPLAIN ANALYZE worker annotations and the accounting
// property under parallelism, plus the fast paths that rode along
// (range-shaped DML WHERE, index-served multi-key ORDER BY).

// lowerBatchMinRows drops the batch/pool threshold so small test corpora
// take the batch pipeline and its worker pool, restoring it afterwards.
func lowerBatchMinRows(t testing.TB, n int) {
	t.Helper()
	old := batchMinRows
	batchMinRows = n
	t.Cleanup(func() { batchMinRows = old })
}

// assertNoWorkerLeak asserts every spawned worker goroutine has exited.
// The counter is engine-wide, and the suite does not run tests in
// parallel, so zero here means no pool outlived its statement.
func assertNoWorkerLeak(t *testing.T) {
	t.Helper()
	if n := parallelWorkersActive.Load(); n != 0 {
		t.Fatalf("parallelWorkersActive = %d, want 0 (worker goroutines leaked)", n)
	}
}

// equivDBs builds the property corpus three ways: indexed with a worker
// pool, indexed serial, and unindexed with a worker pool (so heap scans
// parallelize too). The dimension table d joins m on m.a = d.k: through
// its index on the indexed databases, by hash join on the plain one.
// Every key 0..24 has two rows, so a full probe batch of m fans out past
// one 1024-slot output chunk; m.a values 25..29 find no row.
func equivDBs() (par, ser, plain *Database) {
	par = NewDatabase(WithMaxWorkers(4))
	ser = NewDatabase(WithMaxWorkers(1))
	plain = NewDatabase(WithMaxWorkers(4))
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE m (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT)")
		db.MustExec("CREATE INDEX idx_m_a ON m (a)")
		db.MustExec("CREATE TABLE d (k INTEGER, v REAL, t TEXT)")
		db.MustExec("CREATE INDEX idx_d_k ON d (k)")
	}
	plain.MustExec("CREATE TABLE m (id INTEGER, a INTEGER, b INTEGER, c TEXT)")
	plain.MustExec("CREATE TABLE d (k INTEGER, v REAL, t TEXT)")
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	for i := 0; i < 52; i++ {
		var k any = i % 25
		if i >= 50 {
			k = nil // NULL build keys never join
		}
		// Quarter values: every float summation order is exact, so
		// pooled and serial SUM/AVG agree bit for bit.
		for _, db := range []*Database{par, ser, plain} {
			db.MustExec("INSERT INTO d VALUES (?, ?, ?)", k, float64(i)/4, words[i%len(words)])
		}
	}
	return par, ser, plain
}

func equivPred(r *rand.Rand) string {
	atoms := []string{
		fmt.Sprintf("a = %d", r.Intn(30)),
		fmt.Sprintf("a > %d", r.Intn(30)),
		fmt.Sprintf("a BETWEEN %d AND %d", r.Intn(15), 15+r.Intn(15)),
		fmt.Sprintf("b > %d", r.Intn(50)),
		fmt.Sprintf("b * 2 < %d", r.Intn(60)),
		"a IS NULL",
		"a IS NOT NULL",
		fmt.Sprintf("c LIKE '%%%c%%'", 'a'+rune(r.Intn(5))),
		fmt.Sprintf("id %% %d = %d", 2+r.Intn(5), r.Intn(3)),
	}
	p := atoms[r.Intn(len(atoms))]
	for r.Intn(3) == 0 {
		op := "AND"
		if r.Intn(2) == 0 {
			op = "OR"
		}
		p = fmt.Sprintf("(%s %s %s)", p, op, atoms[r.Intn(len(atoms))])
	}
	return p
}

// TestSerialParallelEquivalence is the pool's core property: with the
// parallel threshold lowered so every eligible statement actually fans
// out, a pooled database, a serial database, and an unindexed pooled
// database execute identical interleaved DML and must return row-for-row
// identical results — same rows, same order — across scans, parallel
// aggregation, elided orders, LIMIT truncation, and joins whose probe
// runs on the batches (inner and LEFT, NULL keys, fan-out past one
// output chunk, residual ON conjuncts, aggregates over the join).
func TestSerialParallelEquivalence(t *testing.T) {
	lowerBatchMinRows(t, 8)
	par, ser, plain := equivDBs()
	all := []*Database{par, ser, plain}
	r := rand.New(rand.NewSource(2025))
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	nextID := 0
	insert := func() {
		var a any = r.Intn(30)
		if r.Intn(7) == 0 {
			a = nil
		}
		b, c := r.Intn(50), words[r.Intn(len(words))]
		for _, db := range all {
			db.MustExec("INSERT INTO m VALUES (?, ?, ?, ?)", nextID, a, b, c)
		}
		nextID++
	}
	// Two batches' worth of rows, so the pool genuinely splits the scans
	// and aggregations (a one-batch table runs on one worker).
	for i := 0; i < 1300; i++ {
		insert()
	}

	// Sanity: the pooled database must actually plan parallel operators,
	// or the whole property tests nothing.
	plan, err := par.Explain("SELECT id FROM m WHERE b > 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(plan, "\n"), "vectorized seq scan m (as m) workers=4") {
		t.Fatalf("pooled db did not plan a parallel scan:\n%s", strings.Join(plan, "\n"))
	}
	for db, line := range map[*Database]string{
		par:   "index nested loop join on m.a = d.k (index idx_d_k on d) (batched workers=4)",
		plain: "hash join on m.a = d.k (build right: 25 key(s)) (batched workers=4)",
	} {
		plan, err := db.Explain("SELECT d.t, COUNT(*) FROM m JOIN d ON m.a = d.k WHERE b > 10 GROUP BY d.t")
		if err != nil {
			t.Fatal(err)
		}
		if text := strings.Join(plan, "\n"); !strings.Contains(text, line) ||
			!strings.Contains(text, "hash aggregate by d.t (vectorized workers=4)") {
			t.Fatalf("pooled db did not plan the batched join probe:\n%s", text)
		}
	}

	queries := func(pred string, r *rand.Rand) []string {
		return []string{
			"SELECT id, a, b, c FROM m WHERE " + pred,
			"SELECT a, COUNT(*), SUM(b), MIN(b), MAX(c), AVG(b) FROM m WHERE " + pred + " GROUP BY a",
			"SELECT COUNT(*), SUM(b), MIN(a), MAX(b) FROM m WHERE " + pred,
			"SELECT COUNT(*), SUM(a + b) FROM m WHERE " + pred, // non-mergeable SUM arg: stays serial
			fmt.Sprintf("SELECT id, a FROM m WHERE %s ORDER BY a LIMIT %d", pred, 1+r.Intn(9)),
			"SELECT id, a, b FROM m ORDER BY a, id LIMIT 12", // grouped tie-sort on the indexed dbs
			"SELECT DISTINCT a, b FROM m WHERE " + pred,
			"SELECT d.t, COUNT(*), SUM(d.v), AVG(d.v), MIN(b) FROM m JOIN d ON m.a = d.k WHERE " + pred + " GROUP BY d.t",
			"SELECT m.id, m.a, d.v FROM m LEFT JOIN d ON m.a = d.k AND d.v > 3 WHERE " + pred,
			"SELECT m.id, m.b, d.t FROM m JOIN d ON m.a = d.k WHERE " + pred,
			"SELECT COUNT(*), SUM(m.b), SUM(d.v) FROM m JOIN d ON m.a = d.k AND m.b > d.v WHERE " + pred,
			fmt.Sprintf("SELECT m.id, d.t, d.v FROM m JOIN d ON m.a = d.k WHERE %s ORDER BY d.v DESC, m.id LIMIT %d", pred, 1+r.Intn(9)),
		}
	}
	for step := 0; step < 320; step++ {
		var dml string
		var params []any
		switch r.Intn(7) {
		case 0, 1:
			insert()
		case 2:
			dml = fmt.Sprintf("UPDATE m SET a = %d WHERE id %% 7 = %d", r.Intn(30), r.Intn(7))
		case 3:
			// Range-shaped DML: the indexed dbs serve it from the ordered
			// view (dmlRangeIDs), plain walks the heap — results must agree.
			dml, params = "UPDATE m SET b = b + 1 WHERE a > ?", []any{r.Intn(30)}
		case 4:
			dml, params = "DELETE FROM m WHERE id = ?", []any{r.Intn(nextID + 1)}
		case 5:
			dml = fmt.Sprintf("DELETE FROM m WHERE a BETWEEN %d AND %d", r.Intn(28), r.Intn(6))
		default:
			// Re-key a dimension row: d's index keeps the stale posting
			// until vacuum, so index probes must recheck each candidate.
			dml, params = "UPDATE d SET k = (k + 7) % 25 WHERE k = ?", []any{r.Intn(25)}
		}
		if dml != "" {
			n0, err0 := all[0].Exec(dml, params...)
			for _, db := range all[1:] {
				n, err := db.Exec(dml, params...)
				if (err == nil) != (err0 == nil) || n != n0 {
					t.Fatalf("step %d: DML diverged on %q: (%d, %v) vs (%d, %v)",
						step, dml, n0, err0, n, err)
				}
			}
		}
		pred := equivPred(r)
		for _, q := range queries(pred, r) {
			want := queryStrings(t, ser, q)
			for name, db := range map[string]*Database{"parallel": par, "plain": plain} {
				got := queryStrings(t, db, q)
				if len(got) != len(want) {
					t.Fatalf("step %d: %s diverged on %q: %d rows vs %d", step, name, q, len(got), len(want))
				}
				for i := range want {
					if strings.Join(got[i], "|") != strings.Join(want[i], "|") {
						t.Fatalf("step %d: %s diverged on %q at row %d: %v vs %v",
							step, name, q, i, got[i], want[i])
					}
				}
			}
		}
	}
	assertNoWorkerLeak(t)
}

// bigParallelDB builds a table large enough to parallelize at the default
// threshold, with a worker pool forced on.
func bigParallelDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase(WithMaxWorkers(4))
	db.MustExec("CREATE TABLE big (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		db.MustExec("INSERT INTO big VALUES (?, ?, ?)", i, r.Intn(100), r.Intn(1000))
	}
	return db
}

// sealTable seals every cold block of a freshly bulk-loaded table. The
// load may have woken the background sealer, so its pass is waited out
// on both sides of the explicit one: afterwards no sealing is in flight.
func sealTable(t *testing.T, db *Database, table string) {
	t.Helper()
	for db.sealing.Load() {
		time.Sleep(time.Millisecond)
	}
	db.Seal()
	for db.sealing.Load() {
		time.Sleep(time.Millisecond)
	}
	if db.tableMap()[table].sealedRows.Load() == 0 {
		t.Fatalf("table %s has no sealed blocks", table)
	}
}

// TestBatchMorselPlansAtFourWorkers pins the one scan pipeline at a
// pooled default-sized configuration: over a sealed 20k-row table, the
// filter-count, aggregate, GROUP BY, join-aggregate and top-k shapes all
// plan the vectorized scan with workers=4 (the aggregates fold per-worker
// partials — over joined chunks when the join's probe runs on the
// batches — and the top-k projection reads the gathered batches), run
// the kernels (VectorBatches grows), and return what the serial database
// returns.
func TestBatchMorselPlansAtFourWorkers(t *testing.T) {
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(19))
	rows := make([][]any, 20000)
	for i := range rows {
		// Quarter prices: every float summation order is exact, so the
		// pooled and serial SUMs must agree bit for bit.
		rows[i] = []any{i, fmt.Sprintf("p%02d", r.Intn(40)), 1 + r.Intn(20), float64(r.Intn(400)) / 4, r.Intn(1000)}
	}
	stores := make([][]any, 1000)
	for i := range stores {
		stores[i] = []any{i, fmt.Sprintf("region-%d", r.Intn(8))}
	}
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE s (id INTEGER PRIMARY KEY, product TEXT, qty INTEGER, price REAL, store_id INTEGER)")
		db.MustExec("CREATE TABLE st (id INTEGER PRIMARY KEY, region TEXT)")
		if err := db.InsertRows("s", rows); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("st", stores); err != nil {
			t.Fatal(err)
		}
		sealTable(t, db, "s")
	}
	shapes := []struct {
		sql    string
		params []any
		node   string // the consumer's plan line
	}{
		{"SELECT COUNT(*) FROM s WHERE qty > ? AND price < ?", []any{5, 50.0}, "aggregate (single group) (vectorized workers=4)"},
		{"SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), SUM(price) FROM s WHERE qty < ?", []any{9}, "aggregate (single group) (vectorized workers=4)"},
		{"SELECT product, COUNT(*), SUM(qty) FROM s WHERE price > ? GROUP BY product", []any{30.0}, "hash aggregate by product (vectorized workers=4)"},
		{"SELECT st.region, COUNT(*), SUM(s.qty), SUM(s.price) FROM s JOIN st ON s.store_id = st.id WHERE s.qty > ? GROUP BY st.region", []any{6},
			"hash aggregate by st.region (vectorized workers=4)\n  index nested loop join on s.store_id = st.id (index auto_st_id on st) (batched workers=4)"},
		{"SELECT id, price FROM s WHERE qty >= ? ORDER BY price DESC, id LIMIT 10", []any{7}, "project 2 column(s) (vectorized)"},
	}
	for _, sh := range shapes {
		lines, err := par.Explain(sh.sql, sh.params...)
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(lines, "\n")
		if !strings.Contains(plan, "vectorized seq scan s (as s) workers=4") || !strings.Contains(plan, sh.node) {
			t.Fatalf("%q did not plan the batch-morsel pipeline at workers=4:\n%s", sh.sql, plan)
		}
		before := par.Stats().VectorBatches
		got := queryStrings(t, par, sh.sql, sh.params...)
		if par.Stats().VectorBatches <= before {
			t.Fatalf("%q: VectorBatches did not grow", sh.sql)
		}
		if want := queryStrings(t, ser, sh.sql, sh.params...); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q: pooled %v != serial %v", sh.sql, got, want)
		}
		// Worker counts fold into the per-query recorder: a full drain
		// on the pool bills exactly what the serial pipeline bills, and
		// per-operator scans still sum to the per-query total.
		pa, err := par.ExplainAnalyze(context.Background(), sh.sql, sh.params...)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := ser.ExplainAnalyze(context.Background(), sh.sql, sh.params...)
		if err != nil {
			t.Fatal(err)
		}
		pst, sst := pa.Stats, sa.Stats
		if pst.RowsScanned != sst.RowsScanned || pst.VectorBatches != sst.VectorBatches ||
			pst.DecodedBlocks != sst.DecodedBlocks || pst.SegmentScans != sst.SegmentScans ||
			pst.FullScans != sst.FullScans || pst.RowsEmitted != sst.RowsEmitted {
			t.Fatalf("%q: pooled counters %+v != serial %+v", sh.sql, pst, sst)
		}
		if pst.VectorBatches == 0 || pst.DecodedBlocks == 0 || pst.SegmentScans != 1 {
			t.Fatalf("%q: pooled counters missing batch work: %+v", sh.sql, pst)
		}
		if got := pa.scannedTotal(); got != pst.RowsScanned {
			t.Fatalf("%q: per-operator scanned %d != RowsScanned %d", sh.sql, got, pst.RowsScanned)
		}
	}
	assertNoWorkerLeak(t)
}

// TestBatchDecodeErrorSurfaces: a sealed block that fails to decode
// surfaces as a typed ErrInternal — through the serial scan, the pooled
// ordered gather, the pooled and owner-side aggregation folds, and a
// join whose probe runs on the batches — and no worker outlives the
// query.
func TestBatchDecodeErrorSurfaces(t *testing.T) {
	for _, workers := range []int{1, 4} {
		db := NewDatabase(WithMaxWorkers(workers))
		db.MustExec("CREATE TABLE s (id INTEGER, a INTEGER, f FLOAT)")
		db.MustExec("CREATE TABLE d (k INTEGER, w INTEGER)")
		rows := make([][]any, 8*segBlockSlots)
		for i := range rows {
			rows[i] = []any{i, i % 50, float64(i) / 4}
		}
		if err := db.InsertRows("s", rows); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			db.MustExec("INSERT INTO d VALUES (?, ?)", k, k%3)
		}
		sealTable(t, db, "s")
		lo := 5 * segBlockSlots
		blk := findSeg(db.tableMap()["s"].loadSegs(), lo).block(lo)
		blk.cols[1].data = blk.cols[1].data[:1] // column a of block 5: truncated
		for _, q := range []string{
			"SELECT id, a FROM s WHERE a >= 0",
			"SELECT id FROM s WHERE a >= 0 ORDER BY f DESC LIMIT 5",
			"SELECT COUNT(*), SUM(a) FROM s WHERE a >= 0",
			"SELECT id % 1000, SUM(a) FROM s GROUP BY id % 1000", // many groups: owner fold
			"SELECT s.id, d.w FROM s JOIN d ON s.a = d.k",
			"SELECT d.w, COUNT(*), SUM(s.f) FROM s JOIN d ON s.a = d.k GROUP BY d.w",
		} {
			if strings.Contains(q, "JOIN") {
				assertPlans(t, db, q, "(build right: 50 key(s)) (batched")
			}
			if _, err := db.Query(q); CodeOf(err) != ErrInternal {
				t.Fatalf("workers=%d %q: err = %v, want ErrInternal", workers, q, err)
			}
		}
		assertNoWorkerLeak(t)
	}
}

// parallelCursorQueries are the pooled cursors the cancellation and
// abandonment tests interrupt, with the plan line that puts them on the
// pool: a plain batch scan, and a self-join whose probe runs on the
// batches against big's primary-key index.
var parallelCursorQueries = [][2]string{
	{"SELECT id, a FROM big WHERE b >= 0", "vectorized seq scan big (as big) workers=4"},
	{"SELECT x.id, y.b FROM big x JOIN big y ON x.a = y.id WHERE x.b >= 0", "(index auto_big_id on big) (batched workers=4)"},
}

// assertPlans asserts that q's plan contains line.
func assertPlans(t *testing.T, db *Database, q, line string) {
	t.Helper()
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(plan, "\n"); !strings.Contains(text, line) {
		t.Fatalf("%q does not plan %q:\n%s", q, line, text)
	}
}

// TestParallelScanCancellation: cancelling the context mid-iteration of a
// parallel scan (or a batched join probe) surfaces ErrCanceled and stops
// every worker; after Close no goroutine lingers and the read lock is
// released.
func TestParallelScanCancellation(t *testing.T) {
	db := bigParallelDB(t, 8192)
	for qi, ql := range parallelCursorQueries {
		q := ql[0]
		assertPlans(t, db, q, ql[1])
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.QueryRows(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if !rows.Next() {
				t.Fatalf("%q: Next() = false at warm-up row %d: %v", q, i, rows.Err())
			}
		}
		cancel()
		for rows.Next() {
		}
		if CodeOf(rows.Err()) != ErrCanceled {
			t.Fatalf("%q: Err() = %v, want ErrCanceled", q, rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoWorkerLeak(t)
		// The read lock must be free again: a write would deadlock otherwise.
		db.MustExec("INSERT INTO big VALUES (?, 1, 1)", 8192+qi)
	}
}

// TestParallelScanAbandonedCursor: closing a cursor after a partial read
// of a parallel scan (or a batched join probe) stops the pool (no
// goroutine leak, bounded buffered morsels) and releases the lock.
func TestParallelScanAbandonedCursor(t *testing.T) {
	db := bigParallelDB(t, 8192)
	for qi, ql := range parallelCursorQueries {
		q := ql[0]
		assertPlans(t, db, q, ql[1])
		rows, err := db.QueryRows(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !rows.Next() {
				t.Fatalf("%q: Next() = false at row %d: %v", q, i, rows.Err())
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoWorkerLeak(t)
		db.MustExec("DELETE FROM big WHERE id = ?", qi)
		if got := db.Stats().OpenCursors; got != 0 {
			t.Fatalf("%q: OpenCursors = %d, want 0", q, got)
		}
	}
}

// TestParallelExplainAnalyzeWorkersAndAccounting: EXPLAIN ANALYZE renders
// workers=N on parallel operators, and the per-operator accounting
// property — the sum of per-operator scanned counts equals the per-query
// RowsScanned — holds when the rows were scanned by a worker pool.
func TestParallelExplainAnalyzeWorkersAndAccounting(t *testing.T) {
	db := bigParallelDB(t, 8192)
	ctx := context.Background()

	a, err := db.ExplainAnalyze(ctx, "SELECT id, a FROM big WHERE b > 100")
	if err != nil {
		t.Fatal(err)
	}
	plan := strings.Join(a.Plan, "\n")
	if !strings.Contains(plan, "vectorized seq scan big (as big) workers=4") {
		t.Fatalf("analyzed plan missing parallel scan annotation:\n%s", plan)
	}
	if !strings.Contains(plan, "scanned=") {
		t.Fatalf("analyzed plan missing scanned= accounting:\n%s", plan)
	}
	if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
		t.Fatalf("scan: per-operator scanned %d != per-query RowsScanned %d", got, want)
	}
	if a.Stats.RowsScanned == 0 {
		t.Fatal("parallel scan recorded zero scanned rows")
	}

	a, err = db.ExplainAnalyze(ctx, "SELECT a, COUNT(*), SUM(b) FROM big GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	plan = strings.Join(a.Plan, "\n")
	if !strings.Contains(plan, "(vectorized workers=4)") {
		t.Fatalf("analyzed aggregate plan missing parallel annotation:\n%s", plan)
	}
	if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
		t.Fatalf("agg: per-operator scanned %d != per-query RowsScanned %d", got, want)
	}
	assertNoWorkerLeak(t)
}

// TestParallelAggEquivalence pins the partial-aggregation merge against
// the serial fold on a corpus with many groups, NULLs, and every
// mergeable aggregate — identical values AND identical first-seen group
// order.
func TestParallelAggEquivalence(t *testing.T) {
	lowerBatchMinRows(t, 8)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(11))
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE g (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER, w TEXT)")
	}
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	for i := 0; i < 5000; i++ {
		var k any = r.Intn(400)
		var v any = r.Intn(1000)
		if r.Intn(11) == 0 {
			v = nil
		}
		w := words[r.Intn(len(words))]
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO g VALUES (?, ?, ?, ?)", i, k, v, w)
		}
	}
	for _, q := range []string{
		"SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), MAX(w) FROM g GROUP BY k",
		"SELECT k % 7, COUNT(*), SUM(v) FROM g GROUP BY k % 7",
		"SELECT COUNT(*), SUM(v), TOTAL(v), MIN(w), MAX(v) FROM g",
		"SELECT COUNT(*) FROM g WHERE v > 2000", // empty single group
		"SELECT k, COUNT(*) FROM g WHERE v > 500 GROUP BY k HAVING COUNT(*) > 3",
		"SELECT k, SUM(v) FROM g GROUP BY k ORDER BY SUM(v) DESC LIMIT 5",
		// More groups than partialGroupsMax: the workers stop early and
		// the owner folds the remaining batches into the merged table.
		"SELECT id % 2500, COUNT(*), SUM(v), MIN(w), MAX(v) FROM g GROUP BY id % 2500",
	} {
		want := queryStrings(t, ser, q)
		got := queryStrings(t, par, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("parallel aggregation diverged on %q:\n got %v\nwant %v", q, got, want)
		}
	}
	// GROUP_CONCAT and DISTINCT aggregates must refuse the parallel path
	// and still agree (order-sensitive / unmergeable).
	for _, q := range []string{
		"SELECT k % 5, GROUP_CONCAT(w) FROM g GROUP BY k % 5",
		"SELECT COUNT(DISTINCT w), SUM(DISTINCT v) FROM g",
	} {
		want := queryStrings(t, ser, q)
		got := queryStrings(t, par, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("serial-only aggregate diverged on %q", q)
		}
	}
	assertNoWorkerLeak(t)
}

// TestParallelJoinBuildEquivalence pins the hash join whose probe runs on
// the scan's batches (vecJoin), on a pooled database (the pool splits the
// probe input) and a serial one: identical join output (values and order)
// to the row engine's probe, NULL build keys dropped, fan-out past one
// probe round (joinOutMax), and the plan marked with the batched probe's
// worker count.
func TestParallelJoinBuildEquivalence(t *testing.T) {
	lowerBatchMinRows(t, 64)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(13))
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amt INTEGER)")
		db.MustExec("CREATE TABLE custs (cid INTEGER, region INTEGER)")
	}
	for i := 0; i < 900; i++ {
		var cid any = i % 300
		if i%37 == 0 {
			cid = nil // NULL build keys never join
		}
		region := r.Intn(10)
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO custs VALUES (?, ?)", cid, region)
		}
	}
	for i := 0; i < 2500; i++ { // three probe batches
		cust, amt := r.Intn(320), r.Intn(500)
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO orders VALUES (?, ?, ?)", i, cust, amt)
		}
	}
	queries := []string{
		"SELECT o.id, o.cust, c.region FROM orders o JOIN custs c ON o.cust = c.cid",
		"SELECT o.id, c.region FROM orders o LEFT JOIN custs c ON o.cust = c.cid",
		"SELECT o.id, c.region FROM orders o JOIN custs c ON o.cust = c.cid + 0", // computed build key
		// ~290 matches per probe row: each probe batch's output spans
		// hundreds of chunks, and the pooled merge must order the groups
		// founded in later chunks by their slot in the whole batch.
		"SELECT o.id / 64, COUNT(*), SUM(c.region) FROM orders o JOIN custs c ON o.cust % 3 = c.cid % 3 GROUP BY o.id / 64",
		"SELECT o.id, c.cid, c.region FROM orders o LEFT JOIN custs c ON o.cust % 3 = c.cid % 3 AND c.region < o.amt % 7 WHERE o.id % 4 = 0",
	}
	plan, err := par.Explain(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(plan, "\n"), "(build right: 300 key(s)) (batched workers=4)") {
		t.Fatalf("pooled db did not plan a batched join probe:\n%s", strings.Join(plan, "\n"))
	}
	for _, q := range queries {
		forceVector(t, false)
		want := fmt.Sprint(queryStrings(t, ser, q))
		forceVector(t, true)
		for name, db := range map[string]*Database{"pooled": par, "serial": ser} {
			if got := fmt.Sprint(queryStrings(t, db, q)); got != want {
				t.Fatalf("%s batched join diverged from the row probe on %q", name, q)
			}
		}
	}
	assertNoWorkerLeak(t)
}

// TestBatchedProbeRoundsBounded: a probe batch whose matches fan out past
// joinOutMax slots is joined in rounds — through the hash join's buckets
// and through an index — so no round holds more than joinOutMax slots
// plus one probe row's matches, and the rows still come out complete and
// in probe order.
func TestBatchedProbeRoundsBounded(t *testing.T) {
	db := NewDatabase(WithMaxWorkers(1))
	db.MustExec("CREATE TABLE p (id INTEGER, k INTEGER)")
	db.MustExec("CREATE TABLE q (k INTEGER, v INTEGER)")
	probe := make([][]any, 8192)
	for i := range probe {
		probe[i] = []any{i, 1}
	}
	if err := db.InsertRows("p", probe); err != nil {
		t.Fatal(err)
	}
	const fanOut = 64 // a 1024-row batch joins to 4 x joinOutMax slots
	for v := 0; v < fanOut; v++ {
		db.MustExec("INSERT INTO q VALUES (1, ?)", v)
	}
	stmt, err := Parse("SELECT p.id, q.v FROM p JOIN q ON p.k = q.k")
	if err != nil {
		t.Fatal(err)
	}
	for _, access := range []string{"hash", "index"} {
		if access == "index" {
			db.MustExec("CREATE INDEX q_k ON q (k)")
		}
		qc := newQueryCtx(context.Background(), db)
		snap, release := db.beginRead(nil)
		qc.snap = snap
		root, _, err := buildSelectPlan(stmt.(*SelectStmt), db, nil, nil, true, qc)
		if err != nil {
			t.Fatal(err)
		}
		var vec *vecScanOp
		switch j := root.(*projectOp).child.(type) {
		case *hashJoinOp:
			vec = j.vec
		case *indexJoinOp:
			vec = j.vec
		}
		if vec == nil || (vec.join.idx != nil) != (access == "index") {
			t.Fatalf("%s: plan is not a batched %s join", access, access)
		}
		rows, maxSlots := 0, 0
		for ; ; rows++ {
			r, ok, err := root.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if id, v := r[0].AsInt(), r[1].AsInt(); id != int64(rows/fanOut) || v != int64(rows%fanOut) {
				t.Fatalf("%s: row %d = (%d, %d), want (%d, %d)", access, rows, id, v, rows/fanOut, rows%fanOut)
			}
			maxSlots = max(maxSlots, len(vec.b.jout.src))
		}
		qc.stopWorkers()
		release()
		if rows != len(probe)*fanOut {
			t.Fatalf("%s: join returned %d rows, want %d", access, rows, len(probe)*fanOut)
		}
		if maxSlots > joinOutMax+fanOut {
			t.Fatalf("%s: a probe round held %d slots, want at most %d", access, maxSlots, joinOutMax+fanOut)
		}
	}
}

// TestDMLRangeFastPath pins DML's index access paths: an UPDATE/DELETE
// whose WHERE is a range over an indexed column is served from the
// index's ordered view (IndexRangeScans ticks, FullScans does not), an
// equality from the index bucket (IndexScans ticks), and either mutates
// exactly the rows a full scan would.
func TestDMLRangeFastPath(t *testing.T) {
	indexed := NewDatabase()
	plain := NewDatabase()
	indexed.MustExec("CREATE TABLE d (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	indexed.MustExec("CREATE INDEX idx_d_a ON d (a)")
	plain.MustExec("CREATE TABLE d (id INTEGER, a INTEGER, b INTEGER)")
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		var a any = r.Intn(60)
		if r.Intn(9) == 0 {
			a = nil
		}
		b := r.Intn(100)
		indexed.MustExec("INSERT INTO d VALUES (?, ?, ?)", i, a, b)
		plain.MustExec("INSERT INTO d VALUES (?, ?, ?)", i, a, b)
	}
	check := func(dml string, params ...any) {
		t.Helper()
		before := indexed.Stats()
		ni, erri := indexed.Exec(dml, params...)
		after := indexed.Stats()
		np, errp := plain.Exec(dml, params...)
		if erri != nil || errp != nil || ni != np {
			t.Fatalf("%q: indexed (%d, %v) vs plain (%d, %v)", dml, ni, erri, np, errp)
		}
		if got := after.IndexRangeScans - before.IndexRangeScans; got != 1 {
			t.Fatalf("%q: IndexRangeScans delta = %d, want 1 (fast path not taken)", dml, got)
		}
		if after.FullScans != before.FullScans {
			t.Fatalf("%q: FullScans moved %d -> %d, want unchanged", dml, before.FullScans, after.FullScans)
		}
		want := queryStrings(t, plain, "SELECT id, a, b FROM d")
		got := queryStrings(t, indexed, "SELECT id, a, b FROM d")
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q: table contents diverged", dml)
		}
	}
	check("UPDATE d SET b = b + 1 WHERE a > 40")
	check("UPDATE d SET b = b - 1 WHERE a >= ? AND a < ?", 10, 25)
	check("DELETE FROM d WHERE a BETWEEN 5 AND 9")
	check("DELETE FROM d WHERE ? <= a AND a <= ?", 50, 55)
	check("DELETE FROM d WHERE a BETWEEN ? AND ?", 30, 33)
	check("UPDATE d SET a = a + 1 WHERE a > 57") // SET touches the range column itself

	// An equality on an indexed column reads its index bucket.
	for _, id := range []int{7, 8, 9} {
		dml := "UPDATE d SET b = b + 1 WHERE id = ?"
		before := indexed.Stats()
		ni, erri := indexed.Exec(dml, id)
		after := indexed.Stats()
		np, errp := plain.Exec(dml, id)
		if erri != nil || errp != nil || ni != np {
			t.Fatalf("%q %d: indexed (%d, %v) vs plain (%d, %v)", dml, id, ni, erri, np, errp)
		}
		if after.IndexScans-before.IndexScans != 1 || after.FullScans != before.FullScans {
			t.Fatalf("%q: IndexScans delta %d, FullScans delta %d, want 1 and 0", dml,
				after.IndexScans-before.IndexScans, after.FullScans-before.FullScans)
		}
	}
	if want, got := queryStrings(t, plain, "SELECT id, a, b FROM d"), queryStrings(t, indexed, "SELECT id, a, b FROM d"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("equality DML: table contents diverged")
	}

	// A NULL bound matches nothing, on both engines, without a scan.
	before := indexed.Stats()
	ni, err := indexed.Exec("DELETE FROM d WHERE a < ?", nil)
	if err != nil || ni != 0 {
		t.Fatalf("NULL-bound DELETE: (%d, %v), want (0, nil)", ni, err)
	}
	np, err := plain.Exec("DELETE FROM d WHERE a < ?", nil)
	if err != nil || np != 0 {
		t.Fatalf("NULL-bound DELETE (plain): (%d, %v), want (0, nil)", np, err)
	}
	if got := indexed.Stats().FullScans - before.FullScans; got != 0 {
		t.Fatalf("NULL-bound DELETE walked the heap (FullScans delta %d)", got)
	}

	// Victims come through the planner's access path: a range conjunct
	// over the indexed column serves a mixed-column WHERE (the rest is a
	// filter), an OR is no range and walks the heap. Both stay equivalent.
	check2 := func(dml string, wantRange int64) {
		t.Helper()
		before := indexed.Stats()
		ni, erri := indexed.Exec(dml)
		np, errp := plain.Exec(dml)
		if erri != nil || errp != nil || ni != np {
			t.Fatalf("%q: indexed (%d, %v) vs plain (%d, %v)", dml, ni, erri, np, errp)
		}
		if got := int64(indexed.Stats().IndexRangeScans - before.IndexRangeScans); got != wantRange {
			t.Fatalf("%q: IndexRangeScans delta = %d, want %d", dml, got, wantRange)
		}
		want := queryStrings(t, plain, "SELECT id, a, b FROM d")
		if got := queryStrings(t, indexed, "SELECT id, a, b FROM d"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q: table contents diverged", dml)
		}
	}
	check2("UPDATE d SET b = 0 WHERE a > 10 AND b > 90", 1) // range on a, filter on b
	check2("DELETE FROM d WHERE a > 55 OR b > 95", 0)       // OR: full scan
}

// TestOrderByTieSortFromIndex pins the satellite multi-key ORDER BY
// path: `ORDER BY a, b` with an index on a streams the index order and
// tie-sorts runs, so a LIMIT k reads O(k + one run) rows instead of the
// table — while producing exactly the full sort's output.
func TestOrderByTieSortFromIndex(t *testing.T) {
	indexed := NewDatabase()
	plain := NewDatabase()
	indexed.MustExec("CREATE TABLE s (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	indexed.MustExec("CREATE INDEX idx_s_a ON s (a)")
	plain.MustExec("CREATE TABLE s (id INTEGER, a INTEGER, b INTEGER)")
	r := rand.New(rand.NewSource(5))
	const rows, groups = 2000, 50
	for i := 0; i < rows; i++ {
		var a any = r.Intn(groups)
		if r.Intn(40) == 0 {
			a = nil
		}
		b := r.Intn(10) // small domain: real ties on (a, b) too
		indexed.MustExec("INSERT INTO s VALUES (?, ?, ?)", i, a, b)
		plain.MustExec("INSERT INTO s VALUES (?, ?, ?)", i, a, b)
	}
	for _, q := range []string{
		"SELECT id, a, b FROM s ORDER BY a, b",
		"SELECT id, a, b FROM s ORDER BY a DESC, b",
		"SELECT id, a, b FROM s ORDER BY a, b DESC, id",
		"SELECT id, a, b FROM s ORDER BY a, b LIMIT 17",
		"SELECT id, a, b FROM s ORDER BY a DESC, b DESC LIMIT 9 OFFSET 4",
	} {
		want := queryStrings(t, plain, q)
		got := queryStrings(t, indexed, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("tie-sort diverged on %q", q)
		}
	}
	// The O(k)-ish scan bound: LIMIT 17 must read at most a handful of
	// runs (expected run length rows/groups = 40), nowhere near the table.
	rs, err := indexed.QueryRows(context.Background(), "SELECT id, a, b FROM s ORDER BY a, b LIMIT 17")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs.Next() {
		n++
	}
	st := rs.Stats()
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("LIMIT 17 returned %d rows", n)
	}
	if st.OrderedIndexOrders != 1 {
		t.Fatalf("OrderedIndexOrders = %d, want 1 (index did not serve the leading key)", st.OrderedIndexOrders)
	}
	// Two full runs (~80 rows) plus slack is ample; the table is 2000.
	if limit := uint64(rows / 4); st.RowsScanned > limit {
		t.Fatalf("RowsScanned = %d for LIMIT 17, want <= %d (tie-sort not streaming)", st.RowsScanned, limit)
	}
	// The single-key elision must still skip the sort entirely (no
	// regression from widening the gate).
	plan, err := indexed.Explain("SELECT id, a FROM s ORDER BY a LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(plan, "\n")
	if strings.Contains(text, "sort by") || !strings.Contains(text, "ordered index scan") {
		t.Fatalf("single-key ORDER BY regressed:\n%s", text)
	}
	// Multi-key keeps a sort node — but a streaming, presorted one over
	// the ordered scan.
	plan, err = indexed.Explain("SELECT id, a, b FROM s ORDER BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	text = strings.Join(plan, "\n")
	if !strings.Contains(text, "sort by") || !strings.Contains(text, "ordered index scan") {
		t.Fatalf("multi-key ORDER BY did not combine ordered scan + tie-sort:\n%s", text)
	}
}

// TestConcurrentParallelQueries drives several goroutines through
// pooled scans, aggregations and cursors concurrently (with -race in CI)
// while asserting nothing leaks.
func TestConcurrentParallelQueries(t *testing.T) {
	db := bigParallelDB(t, 8192)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := db.Query("SELECT id FROM big WHERE b > ?", i*50); err != nil {
						errs <- err
					}
				case 1:
					if _, err := db.Query("SELECT a, COUNT(*), SUM(b) FROM big GROUP BY a"); err != nil {
						errs <- err
					}
				default:
					rows, err := db.QueryRows(ctx, "SELECT id, a FROM big WHERE b >= 0")
					if err != nil {
						errs <- err
						continue
					}
					for j := 0; j < 5 && rows.Next(); j++ {
					}
					if err := rows.Close(); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertNoWorkerLeak(t)
}

// TestParallelFloatAggEquivalence pins the float SUM/AVG parallel path
// (the ROADMAP carried-forward gap). Float addition is not associative,
// so the engine defines its summation order — left-to-right within each
// morsel, then morsels folded in ascending order — making results
// deterministic regardless of worker count or scheduling. On
// exactly-representable values (quarters), every association is exact,
// so serial and parallel results must additionally be bit-identical.
func TestParallelFloatAggEquivalence(t *testing.T) {
	lowerBatchMinRows(t, 8)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(17))
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE f (id INTEGER PRIMARY KEY, g INTEGER, v REAL)")
	}
	for i := 0; i < 5000; i++ {
		g := r.Intn(60)
		// Quarters up to ~2^12: sums stay far below 2^53, so every
		// addition order yields the same float64.
		var v any = float64(r.Intn(1<<14)-1<<13) / 4
		if r.Intn(13) == 0 {
			v = nil
		}
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO f VALUES (?, ?, ?)", i, g, v)
		}
	}
	// Sanity: the pooled db must actually take the parallel aggregate path
	// for a float SUM, or this property tests nothing.
	plan, err := par.Explain("SELECT SUM(v) FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(plan, "\n"), "(vectorized workers=4)") {
		t.Fatalf("float SUM did not plan parallel aggregation:\n%s", strings.Join(plan, "\n"))
	}
	queries := []string{
		"SELECT SUM(v), AVG(v), TOTAL(v) FROM f",
		"SELECT g, SUM(v), AVG(v) FROM f GROUP BY g",
		"SELECT g % 7, SUM(v), COUNT(v) FROM f WHERE v > 0 GROUP BY g % 7",
		"SELECT SUM(v) FROM f WHERE id % 3 = 1",
		// Past partialGroupsMax the owner takes over at a batch boundary
		// that depends on scheduling; the sums must not.
		"SELECT id % 2000, SUM(v), AVG(v) FROM f GROUP BY id % 2000",
	}
	for _, q := range queries {
		want := queryStrings(t, ser, q)
		got := queryStrings(t, par, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("float aggregation diverged serial vs parallel on %q:\n got %v\nwant %v", q, got, want)
		}
		// Determinism: repeated parallel runs (different morsel claim
		// interleavings) must reproduce the same bits every time.
		for run := 0; run < 4; run++ {
			if again := queryStrings(t, par, q); fmt.Sprint(again) != fmt.Sprint(got) {
				t.Fatalf("float aggregation nondeterministic on %q:\n got %v\nthen %v", q, got, again)
			}
		}
	}
	assertNoWorkerLeak(t)
}
