package sqldb

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the engine's scan pipeline for large tables, built
// on the kernels of vector.go. A base-table scan is cut into batches of
// vecBatchRows slots — one sealed block, or one block of the heap — and
// every batch runs the WHERE conjuncts as fused predicate kernels. The
// same batch is the unit of parallelism: on a pooled database, workers
// claim batch indexes from an atomic counter, load and filter their
// batches, and either hand them to the owner goroutine in batch order
// (row and projection consumers) or fold them into private partial
// aggregates that the owner merges (aggregation).
//
// The scan keeps the row-at-a-time `operator` contract towards the rest of
// the tree — projections, sorts and join probes pull the surviving rows
// one by one — so every plan shape that reads a large table runs the
// kernels. Accounting is emission-driven so it stays bit-identical to the
// serial scanOp+filterOp stack even when a LIMIT stops the plan early:
// rows and the tombstones stepped over before them are counted only when
// the emission cursor passes them, exactly where the row engine's pull
// would have counted them, whichever goroutine loaded the batch.

// vectorEnabled switches the batch pipeline on. Package-level so the
// equivalence and metamorphic suites can force the row engine and compare
// the two row for row.
var vectorEnabled = true

// batchMinRows is the minimum live-row count before a heap scan runs as
// batches (sealed tables always do) and before a scan fans out to the
// worker pool. Below it plans stay row-at-a-time and serial, so small
// scans never pay batch setup or pool overhead. A variable so property
// tests can lower it to push small corpora through the batch paths.
var batchMinRows = 4096

// ---------------------------------------------------------------------------
// Batch loading

// batchSource is the slot space one scan walks, captured once on the owner
// goroutine: the heap slot array, the published sealed segments and the
// statement snapshot. Any goroutine can then load any batch by index with
// no lock held, judging visibility exactly as scanOp does.
type batchSource struct {
	table    *Table
	arr      []*rowSlot
	n        int
	segs     []*segment
	snap     *snapshot
	need     []bool // column ordinals the kernels read
	needRows bool   // sealed batches decode every column, for emitted rows
}

func newBatchSource(t *Table, snap *snapshot, need []bool, needRows bool) batchSource {
	src := batchSource{table: t, snap: snap, need: need, needRows: needRows}
	src.arr, src.n = t.loadSlots()
	if !debugDisableTombstoneSkip {
		src.segs = t.loadSegs()
	}
	return src
}

func (src *batchSource) batches() int { return (src.n + vecBatchRows - 1) / vecBatchRows }

// load fills b with batch idx and runs the fused filter kernels over it.
// A sealed block decodes the kernel columns; a heap block gathers its
// visible rows. Decode errors cannot occur for blocks this process sealed
// (segment_test.go fuzzes the corruption paths) but are reported anyway.
func (src *batchSource) load(b *vecBatch, idx int, preds []vecPredFn) error {
	if b.cols == nil {
		width := len(src.table.Columns)
		b.cols = make([]vecCol, width)
		b.colBuf = make([][]Value, width)
		b.pre = make([]int32, vecBatchRows)
		b.lazy = make([][]Value, width)
	}
	for c := range b.lazy {
		b.lazy[c] = nil
	}
	b.idx, b.blk, b.tail = idx, nil, 0
	lo := idx * vecBatchRows
	if seg := findSeg(src.segs, lo); seg != nil {
		if err := src.loadSealed(b, seg.block(lo)); err != nil {
			return err
		}
	} else {
		src.loadHeap(b, lo, min(lo+vecBatchRows, src.n))
	}
	b.sel = maskTo(b.n)
	if b.n == 0 {
		return nil
	}
	for _, p := range preds {
		var t, nl vecBitset
		p(b, &t, &nl)
		for w := range b.sel {
			b.sel[w] &= t[w] // false and NULL both drop, as filterOp
		}
	}
	return nil
}

// loadSealed decodes the kernel columns (every column when rows are
// emitted) of one sealed block. Sealed blocks hold no tombstones by
// construction.
func (src *batchSource) loadSealed(b *vecBatch, blk *segBlock) error {
	b.blk, b.n, b.rows = blk, blk.nrows, nil
	for c := range b.cols {
		if !src.needRows && !src.need[c] || b.n == 0 {
			b.cols[c] = vecCol{}
			continue
		}
		buf := b.colBuf[c]
		if buf == nil {
			buf = make([]Value, vecBatchRows)
			b.colBuf[c] = buf
		}
		if err := blk.cols[c].decode(b.n, buf[:b.n]); err != nil {
			return err
		}
		b.cols[c] = vecCol{vals: buf[:b.n], kinds: blk.cols[c].kinds}
	}
	for j := 0; j < b.n; j++ {
		b.pre[j] = 0
	}
	return nil
}

// loadHeap gathers the visible rows of heap slots [lo, hi), mirroring
// scanOp's per-slot walk: versionless slots pass silently, invisible
// versions are counted into pre/tail.
func (src *batchSource) loadHeap(b *vecBatch, lo, hi int) {
	if b.rowBuf == nil {
		b.rowBuf = make([]Row, vecBatchRows)
	}
	n := 0
	var carry int32
	for pos := lo; pos < hi; pos++ {
		head := src.arr[pos].head.Load()
		if head == nil {
			continue
		}
		var r Row
		switch {
		case debugDisableTombstoneSkip:
			r = head.row
		case src.snap == nil:
			r = latestRow(head)
		default:
			r = visibleVersion(head, src.snap)
		}
		if r == nil {
			carry++
			continue
		}
		b.pre[n] = carry
		carry = 0
		b.rowBuf[n] = r
		n++
	}
	b.n, b.tail = n, carry
	b.rows = b.rowBuf[:n]
	for c, needed := range src.need {
		if !needed || n == 0 {
			b.cols[c] = vecCol{}
			continue
		}
		buf := b.colBuf[c]
		if buf == nil {
			buf = make([]Value, vecBatchRows)
			b.colBuf[c] = buf
		}
		for j := 0; j < n; j++ {
			buf[j] = b.rowBuf[j][c]
		}
		b.cols[c].setVals(buf[:n])
	}
}

// tombstones returns the invisible versions the load stepped over.
func (b *vecBatch) tombstones() uint64 {
	t := uint64(b.tail)
	for _, p := range b.pre[:b.n] {
		t += uint64(p)
	}
	return t
}

// materializeRow builds a full-width row for a batch position: heap
// batches hand back a copy of the original row; sealed batches read the
// decoded kernel columns and decode the rest on demand, once per batch —
// aggregation pays for columns outside its kernels only when a batch
// actually discovers a new group.
func (b *vecBatch) materializeRow(i int) Row {
	if b.blk == nil {
		return b.rows[i].Clone()
	}
	r := make(Row, len(b.cols))
	for c := range r {
		if col := &b.cols[c]; col.vals != nil {
			r[c] = col.vals[i]
			continue
		}
		if b.lazy[c] == nil {
			// A hypothetical decode failure degrades to NULLs rather than
			// a panic; the heap still holds the truth for every row.
			buf := make([]Value, b.n)
			if b.blk.cols[c].decode(b.n, buf) != nil {
				for j := range buf {
					buf[j] = Null
				}
			}
			b.lazy[c] = buf
		}
		r[c] = b.lazy[c][i]
	}
	return r
}

// ---------------------------------------------------------------------------
// The scan operator

// vecScanOp scans one base table batch-at-a-time with the filter stack's
// conjuncts compiled to predicate kernels. It replaces an unrestricted
// filter-over-seq-scan chain; index and range access paths keep the row
// scan (their id lists are the win already). With workers > 1 a pool
// loads and filters batches ahead of emission (batchGather).
type vecScanOp struct {
	table   *Table
	qual    string
	cols    []colInfo
	preds   []Expr // fused conjuncts, retained for EXPLAIN and per-worker compiles
	vpreds  []vecPredFn
	need    []bool // column ordinals the compiled kernels read
	qc      *queryCtx
	db      *Database
	params  []Value
	workers int

	// needRows: emitted rows must be real full-width rows (row-projection,
	// join or drain consumers). The vectorized projection and aggregation
	// clear it: they read batch columns, so sealed blocks decode only the
	// needed columns. Rows of sealed blocks are built in the arena, which
	// markTransient turns into one reused row.
	needRows bool
	arena    rowArena

	inited  bool
	done    bool
	src     batchSource
	nextIdx int // serial: next batch to load
	gather  *batchGather
	carry   int64 // tombstones stepped over since the previous emitted row

	b       *vecBatch
	seq     uint64 // batch generation, for consumers caching kernel results
	have    bool   // b holds an unconsumed batch
	emitPos int    // next batch ordinal to account/emit
	lastIdx int    // batch ordinal of the row the last next() returned

	scanned     uint64 // per-operator counters (EXPLAIN ANALYZE)
	tombSkipped uint64
	decBlocks   uint64
	batches     uint64
}

func (s *vecScanOp) columns() []colInfo { return s.cols }

func (s *vecScanOp) reset() {
	if s.gather != nil {
		s.gather.stop()
		s.gather = nil
	}
	s.done = false
	s.have = false
	s.nextIdx = 0
	s.carry = 0
	s.emitPos = 0
	// inited persists: the snapshot, slot array and access-path record
	// are per-operator, as in scanOp.
}

// init captures the scan's source and records the access path, once.
func (s *vecScanOp) init() {
	if s.inited {
		return
	}
	s.inited = true
	var snap *snapshot
	if s.qc != nil {
		snap = s.qc.snap
	}
	s.src = newBatchSource(s.table, snap, s.need, s.needRows)
	if s.qc != nil {
		s.qc.fullScans++
	}
}

func (s *vecScanOp) next() (Row, bool, error) {
	b, i, ok, err := s.emitNext()
	if err != nil || !ok {
		return nil, false, err
	}
	switch {
	case b.blk == nil:
		return b.rows[i], true, nil // heap: the stored row itself
	case !s.needRows:
		// Fully vectorized consumer: it reads batch columns via lastIdx,
		// not the returned row.
		return nil, true, nil
	}
	r := s.arena.alloc(len(b.cols))
	for c := range r {
		r[c] = b.cols[c].vals[i]
	}
	return r, true, nil
}

// emitNext advances the emission cursor to the next filter-surviving row,
// folding the counters of every row and tombstone it passes — the lazy
// walk that keeps totals identical to the row engine under early stops.
func (s *vecScanOp) emitNext() (*vecBatch, int, bool, error) {
	s.init()
	if s.qc != nil {
		if err := s.qc.tickCancelled(); err != nil {
			return nil, 0, false, err
		}
	}
	for {
		if s.have {
			b := s.b
			for s.emitPos < b.n {
				i := s.emitPos
				s.emitPos++
				s.billTombstones(s.carry + int64(b.pre[i]))
				s.carry = 0
				s.scanned++
				if s.qc != nil {
					s.qc.rowsScanned++
				}
				if b.sel.get(i) {
					s.lastIdx = i
					return b, i, true, nil
				}
			}
			s.carry += int64(b.tail)
			s.have = false
		}
		if s.done {
			return nil, 0, false, nil
		}
		if err := s.loadBatch(); err != nil {
			return nil, 0, false, err
		}
	}
}

func (s *vecScanOp) billTombstones(n int64) {
	if n == 0 {
		return
	}
	s.tombSkipped += uint64(n)
	if s.qc != nil {
		s.qc.tombstonesSkipped += uint64(n)
	}
}

// loadBatch makes the next non-empty batch current, or — at the end of
// the slot array — bills the trailing tombstones (only now, when the
// consumer drained this far, exactly when the row engine would have
// walked them) and marks the scan done.
func (s *vecScanOp) loadBatch() error {
	for {
		b, ok, err := s.fetch()
		if err != nil {
			return err
		}
		if !ok {
			s.billTombstones(s.carry)
			s.carry = 0
			s.done = true
			return nil
		}
		s.countBatch(b)
		s.b = b // the next fetch recycles it, even when empty
		if b.n == 0 {
			s.carry += int64(b.tail)
			continue
		}
		s.seq++
		b.seq = s.seq
		s.have, s.emitPos = true, 0
		return nil
	}
}

// fetch returns the next batch in slot order: loaded inline, or taken
// from the worker pool's ordered gather.
func (s *vecScanOp) fetch() (*vecBatch, bool, error) {
	if s.workers > 1 {
		if s.gather == nil {
			s.gather = s.startGather()
		}
		return s.gather.next(s.b)
	}
	if s.nextIdx >= s.src.batches() {
		return nil, false, nil
	}
	if s.b == nil {
		s.b = &vecBatch{}
	}
	err := s.src.load(s.b, s.nextIdx, s.vpreds)
	s.nextIdx++
	return s.b, err == nil, err
}

// countBatch folds one loaded batch's block and batch counters into the
// operator and the per-query recorder. Owner goroutine only.
func (s *vecScanOp) countBatch(b *vecBatch) {
	if b.blk != nil {
		if s.qc != nil {
			if s.decBlocks == 0 {
				s.qc.segmentScans++
			}
			s.qc.decodedBlocks++
		}
		s.decBlocks++
	}
	if b.n > 0 {
		s.batches++
		if s.qc != nil {
			s.qc.vectorBatches++
		}
	}
}

// workerPreds compiles a private copy of the filter kernels (kernels own
// scratch buffers, so goroutines never share one). The plan compiled the
// same conjuncts already, so this cannot fail.
func (s *vecScanOp) workerPreds() []vecPredFn {
	vc := newVecCompiler(s.cols, s.db, s.params)
	out := make([]vecPredFn, len(s.preds))
	for i, p := range s.preds {
		out[i], _ = vc.compilePred(p)
	}
	return out
}

// ---------------------------------------------------------------------------
// Ordered gather

// batchGather loads a scan's batches on a worker pool and hands them to
// the owner strictly in batch order, so downstream operators see exactly
// the serial scan's stream — parallelism changes wall-clock, never
// semantics. Workers are throttled by a ticket semaphore to a few batches
// ahead of the owner, so an abandoned or cancelled cursor buffers
// O(workers) batches, not the table. Consumed batches are recycled
// through a free list; nothing outlives the query.
type batchGather struct {
	src      *batchSource
	nBatches int
	claim    atomic.Int64
	abort    atomic.Bool
	stopCh   chan struct{}
	tickets  chan struct{}
	results  chan gathered
	free     chan *vecBatch
	wg       sync.WaitGroup
	qc       *queryCtx

	nextIdx int
	stash   map[int]gathered
	stopped bool

	// A worker that claimed a batch and then saw the abort flag exits
	// without delivering it, so the owner may never reach an erroring
	// batch through the ordered stream — it recovers the lowest-index
	// error from here when the results channel closes.
	errMu  sync.Mutex
	err    error
	errIdx int
}

// gathered is one worker's delivered batch.
type gathered struct {
	b   *vecBatch
	err error
}

// startGather spawns the pool. Runs on the owner goroutine, which also
// compiles every worker's kernels; qc.stopWorkers (registered here) stops
// and joins the pool before the statement's snapshot is released.
func (s *vecScanOp) startGather() *batchGather {
	nb := s.src.batches()
	nw := max(1, min(s.workers, nb))
	maxAhead := nw * 2
	g := &batchGather{
		src: &s.src, nBatches: nb, qc: s.qc,
		stopCh:  make(chan struct{}),
		tickets: make(chan struct{}, maxAhead), // semaphore
		// Every batch in flight — one per ticket — can sit delivered and
		// unconsumed; the free list also holds the owner's current batch.
		results: make(chan gathered, maxAhead),
		free:    make(chan *vecBatch, maxAhead+1),
		stash:   make(map[int]gathered),
		errIdx:  -1,
	}
	// Claims are monotonic, so the outstanding batches are always the
	// smallest unconsumed indexes and the owner's next batch is among
	// them — no deadlock.
	for i := 0; i < maxAhead; i++ {
		g.tickets <- struct{}{}
	}
	if s.qc != nil {
		s.qc.addFinalizer(g.stop)
	}
	for w := 0; w < nw; w++ {
		g.wg.Add(1)
		parallelWorkersActive.Add(1)
		go g.worker(s.workerPreds())
	}
	go func() {
		g.wg.Wait()
		close(g.results)
	}()
	return g
}

func (g *batchGather) worker(preds []vecPredFn) {
	defer func() {
		parallelWorkersActive.Add(-1)
		g.wg.Done()
	}()
	for {
		select {
		case <-g.tickets:
		case <-g.stopCh:
			return
		}
		idx := int(g.claim.Add(1)) - 1
		if idx >= g.nBatches || g.abort.Load() {
			return
		}
		// cancelled() reads only the immutable context — safe off the
		// owner goroutine, unlike tickCancelled.
		if g.qc.cancelled() != nil {
			return
		}
		var b *vecBatch
		select {
		case b = <-g.free:
		default:
			b = &vecBatch{}
		}
		err := g.src.load(b, idx, preds)
		if err != nil {
			g.errMu.Lock()
			if g.err == nil || idx < g.errIdx {
				g.err, g.errIdx = err, idx
			}
			g.errMu.Unlock()
			g.abort.Store(true)
		}
		select {
		case g.results <- gathered{b: b, err: err}:
		case <-g.stopCh:
			return
		}
		if err != nil {
			return
		}
	}
}

// next recycles the batch the owner just finished and returns the next
// one in batch order. Owner goroutine only.
func (g *batchGather) next(done *vecBatch) (*vecBatch, bool, error) {
	if done != nil {
		select {
		case g.free <- done:
		default:
		}
	}
	for g.nextIdx < g.nBatches {
		r, ok := g.stash[g.nextIdx]
		if ok {
			delete(g.stash, g.nextIdx)
		} else {
			res, open := <-g.results
			if !open {
				// Workers exited without delivering the next batch:
				// cancellation, or an abort whose erroring batch the
				// ordered stream will never reach.
				if err := g.qc.cancelled(); err != nil {
					return nil, false, err
				}
				g.errMu.Lock()
				err := g.err
				g.errMu.Unlock()
				return nil, false, err
			}
			if res.b.idx != g.nextIdx {
				g.stash[res.b.idx] = res
				continue
			}
			r = res
		}
		g.nextIdx++
		g.tickets <- struct{}{}
		return r.b, r.err == nil, r.err
	}
	return nil, false, nil
}

// stop aborts and joins the pool. Idempotent; owner goroutine only.
// Registered as a qc finalizer so it runs before the statement's snapshot
// reference is released.
func (g *batchGather) stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	g.abort.Store(true)
	close(g.stopCh)
	for range g.results { // drains until the closer closes it
	}
	g.stash = nil
}

// ---------------------------------------------------------------------------
// Planner hooks

// filterScanChain walks a filter stack down to its scanOp and collects
// the predicates along the way. Returns nil when the chain does not
// bottom out in a plain scan.
func filterScanChain(src operator) (*scanOp, []Expr) {
	var preds []Expr
	cur := src
	for {
		f, ok := cur.(*filterOp)
		if !ok {
			break
		}
		preds = append(preds, f.pred)
		cur = f.child
	}
	sc, ok := cur.(*scanOp)
	if !ok {
		return nil, nil
	}
	return sc, preds
}

// tryVectorize replaces an unrestricted filter-over-seq-scan chain with a
// vecScanOp when every conjunct compiles to predicate kernels. pool says
// whether the statement may run the scan's batches on the worker pool
// (top level, and no bare LIMIT window that scan-ahead would overrun);
// the pool is used when the database has one and the table is above
// batchMinRows. Returns the (possibly unchanged) source and, on success,
// the compiler — the caller reuses it (and its need-column tracking) to
// vectorize the projection or aggregation above. A chain whose shape
// qualified but whose expressions did not compile counts a row fallback.
func tryVectorize(src operator, db *Database, params []Value, qc *queryCtx, pool bool) (operator, *vecCompiler) {
	if !vectorEnabled {
		return src, nil
	}
	sc, preds := filterScanChain(src)
	if sc == nil || !unrestrictedScan(sc) {
		return src, nil
	}
	// Size gate: below batchMinRows a pure-heap scan pays batch setup with
	// nothing to amortize it over, so small tables stay row-at-a-time.
	// Tables with sealed segments always qualify — decoding columns
	// batch-at-a-time is the segments' native access path. This is a size
	// gate, not a compile fallback, so rowFallbacks does not tick.
	live := sc.table.liveCount()
	if sc.table.sealedRows.Load() == 0 && live < batchMinRows {
		return src, nil
	}
	vc := newVecCompiler(sc.cols, db, params)
	vpreds := make([]vecPredFn, len(preds))
	for i, p := range preds {
		vp, ok := vc.compilePred(p)
		if !ok {
			if qc != nil {
				qc.rowFallbacks++
			}
			return src, nil
		}
		vpreds[i] = vp
	}
	workers := 1
	if pool && qc != nil && db != nil && db.maxWorkers > 1 && live >= batchMinRows {
		workers = db.maxWorkers
	}
	return &vecScanOp{
		table: sc.table, qual: sc.qual, cols: sc.cols,
		preds: preds, vpreds: vpreds, need: vc.need, qc: qc,
		db: db, params: params, workers: workers, needRows: true,
	}, vc
}

// poolScan reports whether a statement's scans may run on the worker
// pool: top-level only (nested plans are re-pulled per outer row), and
// never under a bare LIMIT/OFFSET window without ORDER BY, where workers
// would read rows the window never emits. Aggregates drain their input
// whatever the window.
func poolScan(stmt *SelectStmt, topLevel bool, outer *evalEnv, aggregate bool) bool {
	if !topLevel || outer != nil {
		return false
	}
	return aggregate || len(stmt.OrderBy) > 0 || (stmt.Limit == nil && stmt.Offset == nil)
}

// vecProjPlan is a fully vectorized projection: every select item — and
// every ORDER BY key, appended after the items as the row path's extended
// rows carry them — compiled to a kernel, read from the scan's batches by
// ordinal.
type vecProjPlan struct {
	src    *vecScanOp
	vitems []vecExprFn

	seq   uint64
	cache []*vecCol
}

// tryVectorizeProj compiles the select items and ORDER BY keys against
// the vectorized scan's compiler. Keys resolve output columns first, then
// scan columns, and integer keys are output ordinals, as in
// compileOrderKey. All-or-nothing: a single non-compilable item or key
// keeps the whole projection row-at-a-time (the scan stays vectorized),
// and the compiler's need marks are rolled back so the scan does not
// gather columns only the abandoned kernels would have read.
func tryVectorizeProj(vsc *vecScanOp, vc *vecCompiler, items []SelectItem, orderBy []OrderItem,
	outCols []colInfo, qc *queryCtx) *vecProjPlan {
	saved := append([]bool(nil), vc.need...)
	fail := func() *vecProjPlan {
		copy(vc.need, saved)
		if qc != nil {
			qc.rowFallbacks++
		}
		return nil
	}
	vitems := make([]vecExprFn, len(items), len(items)+len(orderBy))
	for i, it := range items {
		f, ok := vc.compileExpr(it.Expr)
		if !ok {
			return fail()
		}
		vitems[i] = f
	}
	kc := &vecCompiler{env: vc.env, need: vc.need, items: vitems[:len(items)],
		out: newEvalEnv(outCols, vc.env.db, vc.env.params, vc.env, nil)}
	for _, ob := range orderBy {
		if lit, ok := ob.Expr.(*Literal); ok && lit.Val.Kind() == KindInt {
			i := int(lit.Val.AsInt())
			if i < 1 || i > len(items) {
				return fail() // the row path reports the range error
			}
			vitems = append(vitems, vitems[i-1])
			continue
		}
		f, ok := kc.compileExpr(ob.Expr)
		if !ok {
			return fail()
		}
		vitems = append(vitems, f)
	}
	vsc.needRows = false
	return &vecProjPlan{src: vsc, vitems: vitems, cache: make([]*vecCol, len(vitems))}
}

// itemCols returns the kernel results for the batch the scan's last
// emitted row belongs to, re-evaluating once per batch.
func (vp *vecProjPlan) itemCols() []*vecCol {
	b := vp.src.b
	if b.seq != vp.seq {
		vp.seq = b.seq
		for i, f := range vp.vitems {
			vp.cache[i] = f(b)
		}
	}
	return vp.cache
}

// ---------------------------------------------------------------------------
// Vectorized aggregation

// vecAggPlan is a vectorized aggregation: the scan's filter kernels, the
// GROUP BY key kernels and the aggregate-argument kernels run over whole
// batches, which fold straight into GROUP BY partitions without passing
// through the row emission path. With workers > 1 every worker folds the
// batches it claims into private partial states that the owner merges.
type vecAggPlan struct {
	src     *vecScanOp
	groupBy []Expr
	args    []Expr // indexed like aggs; nil for COUNT(*) / no-arg
	workers int
	// repRows: the statement reads its groups' representative rows
	// (readsRepRow). When it does not, groups share one all-NULL row and
	// sealed batches never decode columns just to build one.
	repRows bool
}

// tryVectorizeAgg checks that the GROUP BY keys and aggregate arguments
// compile to kernels over the vectorized scan (marking the columns they
// read). All-or-nothing, like the projection. The scan drops needRows —
// batches carry only the kernel columns, and the representative row a
// first-seen group needs is materialised lazily (materializeRow). The
// fold takes the scan's worker pool only when every aggregate's partial
// states merge exactly.
func tryVectorizeAgg(vsc *vecScanOp, vc *vecCompiler, stmt *SelectStmt, aggs []*FuncCall,
	repRows bool, qc *queryCtx) *vecAggPlan {
	saved := append([]bool(nil), vc.need...)
	fail := func() *vecAggPlan {
		copy(vc.need, saved)
		if qc != nil {
			qc.rowFallbacks++
		}
		return nil
	}
	vp := &vecAggPlan{src: vsc, groupBy: stmt.GroupBy, args: make([]Expr, len(aggs)), workers: 1, repRows: repRows}
	for _, ge := range stmt.GroupBy {
		if _, ok := vc.compileExpr(ge); !ok {
			return fail()
		}
	}
	for i, fc := range aggs {
		if fc.Star || len(fc.Args) == 0 {
			continue
		}
		if _, ok := vc.compileExpr(fc.Args[0]); !ok {
			return fail()
		}
		vp.args[i] = fc.Args[0]
	}
	if vsc.workers > 1 && mergeableAggregates(aggs) {
		vp.workers = vsc.workers
	}
	vsc.workers = vp.workers // EXPLAIN shows the pool that really runs
	vsc.needRows = false
	return vp
}

// aggKernels is one goroutine's private compilation of an aggregation's
// kernels.
type aggKernels struct {
	preds []vecPredFn
	group []vecExprFn
	args  []vecExprFn
}

// compileKernels compiles the plan's kernels for one goroutine. The plan
// compiled the same expressions already, so this cannot fail.
func (vp *vecAggPlan) compileKernels() aggKernels {
	s := vp.src
	vc := newVecCompiler(s.cols, s.db, s.params)
	k := aggKernels{
		preds: s.workerPreds(),
		group: make([]vecExprFn, len(vp.groupBy)),
		args:  make([]vecExprFn, len(vp.args)),
	}
	for i, ge := range vp.groupBy {
		k.group[i], _ = vc.compileExpr(ge)
	}
	for i, a := range vp.args {
		if a != nil {
			k.args[i], _ = vc.compileExpr(a)
		}
	}
	return k
}

// aggPartial is one goroutine's GROUP BY state over the batches it
// folded: groups in first-seen order, each with the scan ordinal of the
// row that founded it, plus the scan counters of those batches.
type aggPartial struct {
	index  map[string]int
	groups []*aggGroup
	first  []int
	repRow Row // shared representative row when the plan reads none

	scanned, tombs, decoded, batches uint64

	errIdx int
	err    error

	keyVals []Value
	kb      []byte
	gcols   []*vecCol
	acols   []*vecCol
}

func newAggPartial(nGroup, nArgs int) *aggPartial {
	return &aggPartial{
		index:   make(map[string]int),
		errIdx:  -1,
		keyVals: make([]Value, nGroup),
		gcols:   make([]*vecCol, nGroup),
		acols:   make([]*vecCol, nArgs),
	}
}

// fold adds one loaded batch's surviving rows to the partial groups.
// morsel keys the order-sensitive float sums (agg.go morselAdder): the
// batch index under the pool, 0 when one goroutine folds everything, so
// serial results match the row engine's single left-to-right fold.
func (p *aggPartial) fold(b *vecBatch, k *aggKernels, aggs []*FuncCall, morsel int) error {
	p.scanned += uint64(b.n)
	p.tombs += b.tombstones()
	if b.blk != nil {
		p.decoded++
	}
	if b.n == 0 {
		return nil
	}
	p.batches++
	for i, f := range k.group {
		p.gcols[i] = f(b)
	}
	for i, f := range k.args {
		if f != nil {
			p.acols[i] = f(b)
		}
	}
	for i := 0; i < b.n; i++ {
		if !b.sel.get(i) {
			continue
		}
		gi := 0
		if len(k.group) > 0 || len(p.groups) == 0 {
			p.kb = p.kb[:0]
			for j, c := range p.gcols {
				v := c.at(i)
				p.keyVals[j] = v
				p.kb = appendValueKey(p.kb, v)
			}
			var seen bool
			if gi, seen = p.index[string(p.kb)]; !seen {
				states, err := newAggStates(aggs)
				if err != nil {
					return err
				}
				repRow := p.repRow
				if repRow == nil {
					repRow = b.materializeRow(i)
				}
				gi = len(p.groups)
				p.groups = append(p.groups, &aggGroup{
					keys:   append([]Value{}, p.keyVals...),
					states: states,
					repRow: repRow,
				})
				p.first = append(p.first, b.idx*vecBatchRows+i)
				p.index[string(p.kb)] = gi
			}
		}
		g := p.groups[gi]
		for ai, fc := range aggs {
			if fc.Star {
				g.states[ai].add(Int(1))
				continue
			}
			if p.acols[ai] == nil {
				continue
			}
			v := p.acols[ai].at(i)
			if ma, ok := g.states[ai].(morselAdder); ok {
				ma.addMorsel(v, morsel)
			} else {
				g.states[ai].add(v)
			}
		}
	}
	return nil
}

// readsRepRow reports whether the post-aggregation expressions of a
// statement read a group's representative row: a column reference (or a
// subquery, which may correlate to one) outside every aggregate call and
// every GROUP BY expression — those compile to the group's accumulated
// values and key values instead (compile.go).
func readsRepRow(actx *aggCtx, exprs ...Expr) bool {
	reads := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		walkExpr(e, func(x Expr) bool {
			if actx.groupIndex(x) >= 0 {
				return false
			}
			switch t := x.(type) {
			case *FuncCall:
				if isAggregateName(t.Name) {
					return false
				}
			case *ColumnRef, *Subquery, *ExistsExpr:
				reads = true
			case *InList:
				reads = reads || t.Sub != nil
			}
			return !reads
		})
	}
	return reads
}

// newAggStates builds one fresh accumulator per aggregate.
func newAggStates(aggs []*FuncCall) ([]aggState, error) {
	states := make([]aggState, len(aggs))
	for i, fc := range aggs {
		st, err := newAggState(fc)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

// partialGroupsMax decides whether an aggregation's pool is worth it.
// Partial aggregation pays off while groups are few: every worker builds
// its own copy of each group it meets, and the owner merges the copies.
// When the first batch alone founds more groups than this, the rest of
// the input will mostly repeat that duplicated work
// (BenchmarkParallelAgg: 5k groups over 50k rows), so the owner folds
// every batch itself.
const partialGroupsMax = 256

// runAggregationVec is runAggregation's batch twin. The owner goroutine
// folds batch 0; without a pool, or when batch 0 shows too many groups
// (partialGroupsMax), it folds every later batch too, in order. Otherwise
// workers claim the remaining batches and fold them into private
// partials, which the owner merges — restoring serial first-seen group
// order from each group's minimal scan ordinal. Batch 0 is folded the
// same way on either path, so the choice depends on the data alone.
// Group discovery order, key encoding, representative rows and
// accumulator folds all match the row drain exactly. Workers are spawned
// and joined inside this call; their counters are folded into the
// per-query recorder here, on the owner goroutine.
func runAggregationVec(stmt *SelectStmt, vp *vecAggPlan, aggs []*FuncCall, qc *queryCtx) ([]*aggGroup, error) {
	s := vp.src
	s.init()
	nb := s.src.batches()
	var nullRow Row
	if !vp.repRows {
		nullRow = make(Row, len(s.cols)) // zero Values are NULL
	}
	owner := newAggPartial(len(vp.groupBy), len(aggs))
	owner.repRow = nullRow
	parts := []*aggPartial{owner}
	k := vp.compileKernels()
	var b vecBatch
	for idx := 0; idx < nb; idx++ {
		if owner.err = qc.cancelled(); owner.err != nil {
			break
		}
		// The owner's single fold keys every float sum on morsel 0 — the
		// row engine's one left-to-right fold; batch 0 is morsel 0 under
		// the pool's per-batch order as well.
		if owner.err = s.src.load(&b, idx, k.preds); owner.err == nil {
			owner.err = owner.fold(&b, &k, aggs, 0)
		}
		if owner.err != nil {
			owner.errIdx = idx
			break
		}
		if idx == 0 && vp.workers > 1 && nb > 1 && len(owner.groups) <= partialGroupsMax {
			parts = append(parts, foldOnWorkers(vp, aggs, nullRow, qc)...)
			break
		}
	}

	// Counters first, then errors/cancellation, then the merge.
	var firstErr error
	firstErrIdx := -1
	for _, p := range parts {
		p.account(s, qc)
		if p.err != nil && (firstErr == nil || p.errIdx < firstErrIdx) {
			firstErr, firstErrIdx = p.err, p.errIdx
		}
	}
	if err := qc.cancelled(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	groups := owner.groups
	if len(parts) > 1 {
		groups = mergePartials(parts)
	}
	if len(stmt.GroupBy) == 0 && len(groups) == 0 {
		// A query with aggregates but no GROUP BY always yields one
		// group, even over empty input.
		states, err := newAggStates(aggs)
		if err != nil {
			return nil, err
		}
		groups = append(groups, &aggGroup{states: states, repRow: make(Row, len(s.cols))})
	}
	return groups, nil
}

// foldOnWorkers folds batches 1.. on the pool into per-worker partials,
// keying float sums by batch index. A worker's error stops every worker.
func foldOnWorkers(vp *vecAggPlan, aggs []*FuncCall, repRow Row, qc *queryCtx) []*aggPartial {
	nb := vp.src.src.batches()
	nw := min(vp.workers, nb-1)
	kernels := make([]aggKernels, nw)
	parts := make([]*aggPartial, nw)
	for w := range parts {
		kernels[w] = vp.compileKernels() // on the owner goroutine
		parts[w] = newAggPartial(len(vp.groupBy), len(aggs))
		parts[w].repRow = repRow
	}
	var claim atomic.Int64
	claim.Store(1)
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		parallelWorkersActive.Add(1)
		go func(p *aggPartial, k *aggKernels) {
			defer func() {
				parallelWorkersActive.Add(-1)
				wg.Done()
			}()
			var b vecBatch
			for {
				idx := int(claim.Add(1)) - 1
				if idx >= nb || abort.Load() || qc.cancelled() != nil {
					return
				}
				err := vp.src.src.load(&b, idx, k.preds)
				if err == nil {
					err = p.fold(&b, k, aggs, idx)
				}
				if err != nil {
					p.err, p.errIdx = err, idx
					abort.Store(true)
					return
				}
			}
		}(parts[w], &kernels[w])
	}
	wg.Wait()
	return parts
}

// account folds a partial's scan counters into the operator and the
// per-query recorder. Owner goroutine only.
func (p *aggPartial) account(s *vecScanOp, qc *queryCtx) {
	s.scanned += p.scanned
	s.tombSkipped += p.tombs
	s.batches += p.batches
	if qc != nil {
		qc.rowsScanned += p.scanned
		qc.tombstonesSkipped += p.tombs
		qc.decodedBlocks += p.decoded
		qc.vectorBatches += p.batches
		if p.decoded > 0 && s.decBlocks == 0 {
			qc.segmentScans++
		}
	}
	s.decBlocks += p.decoded
}

// mergePartials merges per-goroutine partial groups in serial first-seen
// order, by the groups' minimal scan ordinals (unique — one row founds
// one group). Per group it keeps the identity (keys, repRow) of that
// first row — the one the serial fold would have seen first.
func mergePartials(parts []*aggPartial) []*aggGroup {
	type merged struct {
		g     *aggGroup
		first int
	}
	byKey := make(map[string]*merged)
	var all []*merged
	for _, p := range parts {
		for key, gi := range p.index {
			g, first := p.groups[gi], p.first[gi]
			m, ok := byKey[key]
			if !ok {
				m = &merged{g: g, first: first}
				byKey[key] = m
				all = append(all, m)
				continue
			}
			if first < m.first {
				m.g.keys, m.g.repRow, m.first = g.keys, g.repRow, first
			}
			for i := range m.g.states {
				m.g.states[i].(mergeableAggState).merge(g.states[i])
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].first < all[b].first })
	out := make([]*aggGroup, len(all))
	for i, m := range all {
		out[i] = m.g
	}
	return out
}
