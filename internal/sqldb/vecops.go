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
// batches — and, when the scan is an equi-join's probe input, join them
// (vecJoin) — and either hand them to the owner goroutine in batch order
// (row and projection consumers) or fold them into private partial
// aggregates that the owner merges (aggregation).
//
// The scan keeps the row-at-a-time `operator` contract towards the rest of
// the tree — projections, sorts and joins pull the surviving rows one by
// one — so every plan shape that reads a large table runs the kernels. Accounting is emission-driven so it stays bit-identical to the
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

// batchStage is one goroutine's private compilation of the work a batch
// gets after loading: the fused filter kernels and, when a join probes
// the scan (vecJoin), the probe. Kernels own scratch buffers, so
// goroutines never share a stage.
type batchStage struct {
	preds []vecPredFn
	probe *joinProbe // nil unless the scan is a batched join's probe input
}

// run loads batch idx, filters it and, under a batched join, joins it.
func (st *batchStage) run(src *batchSource, b *vecBatch, idx int) error {
	if err := src.load(b, idx, st.preds); err != nil {
		return err
	}
	if st.probe != nil {
		st.probe.run(b, 0)
	}
	return nil
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
	if j := b.vj; j != nil {
		// A joined chunk: the probe row and the matched build row (a
		// NULL-padded LEFT JOIN row has none; zero Values are NULL).
		r := make(Row, len(b.cols))
		copy(r[j.probeOff:j.probeOff+len(j.scan.cols)], b.probe.materializeRow(int(b.src[i])))
		copy(r[j.buildOff:j.buildOff+j.buildW], b.bld[i])
		return r
	}
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
	preds   []Expr     // fused conjuncts, retained for EXPLAIN and per-worker compiles
	stage   batchStage // the owner goroutine's kernels
	need    []bool     // column ordinals the compiled kernels read
	join    *vecJoin   // non-nil: a join probes every batch (batchProbe)
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
	if s.join != nil {
		s.join.init(snap)
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
	err := s.stage.run(&s.src, s.b, s.nextIdx)
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

// workerStage compiles a private copy of the scan's batch stage. The plan
// compiled the same expressions already, so this cannot fail.
func (s *vecScanOp) workerStage() *batchStage {
	vc := newVecCompiler(s.cols, s.db, s.params)
	st := &batchStage{preds: make([]vecPredFn, len(s.preds))}
	for i, p := range s.preds {
		st.preds[i], _ = vc.compilePred(p)
	}
	if s.join != nil {
		st.probe = s.join.compile()
	}
	return st
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
		go g.worker(s.workerStage())
	}
	go func() {
		g.wg.Wait()
		close(g.results)
	}()
	return g
}

func (g *batchGather) worker(st *batchStage) {
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
		err := st.run(g.src, b, idx)
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
// Batched join probe

// vecJoin is the probe stage of an inner or LEFT equi-join whose probe
// input is a vecScanOp. The goroutine that loaded and filtered a probe
// batch also joins it — against the hash join's buckets, or through the
// equality index under the statement snapshot — into the batch's joinOut.
// The owner then only emits rows (probeJoinCore.next) or merges aggregate
// partials folded from joined chunks (runAggregationVec). Built on the
// owner at plan time and read-only once batches load, so every worker
// shares it.
type vecJoin struct {
	scan      *vecScanOp
	cols      []colInfo // joined schema, the join operator's output columns
	probeOff  int       // ordinal of the first probe column in a joined row
	buildOff  int       // ordinal of the first build column
	buildW    int
	leftOuter bool
	keyE      Expr // probe key over the probe columns
	residual  Expr // non-equi ON remainder over the joined columns, or nil
	// need marks the joined columns kernels over joined chunks read (the
	// residual, aggregate keys and arguments); chunks gather only those.
	need []bool

	// The build side: the hash join's buckets (built on the owner before
	// any batch loads), or the inner table's equality index, read under
	// the statement snapshot.
	keyIndex map[string]int
	buckets  [][]Row
	table    *Table
	idx      *Index
	snap     *snapshot
}

// joinOutMax bounds the slots of one probe round. A batch whose matches
// fan out further is joined in several rounds, each resuming at the
// first probe row the previous one left, so a batch's joined output
// stays bounded whatever the fan-out — a round always takes at least one
// probe row whole, so one row's matches are the exception.
const joinOutMax = 16 * vecBatchRows

// joinOut is one probe round's joined output, one entry per output slot,
// in the row probe's order: probe position first, then match order
// (bucket order, or ascending row id through the index).
type joinOut struct {
	from, to int      // the round joined probe rows [from, to)
	skipped  int      // slots of the batch's earlier rounds
	start    []int32  // start[i-from]: first slot of probe row i; start[to-from] = slots
	src      []int32  // probe position of each slot
	bld      []Row    // matched build row; nil pads an unmatched LEFT JOIN row
	pass     []uint64 // bitset over slots: the row survived the residual
}

func (o *joinOut) kept(k int) bool { return o.pass[k>>6]&(1<<uint(k&63)) != 0 }

// slots returns the slot range of probe row i, which the round joined.
func (o *joinOut) slots(i int) (int, int) {
	return int(o.start[i-o.from]), int(o.start[i-o.from+1])
}

// joinProbe is one goroutine's private compilation of a vecJoin: the
// probe-key kernel, the residual predicate kernel, and scratch.
type joinProbe struct {
	j        *vecJoin
	key      vecExprFn
	residual vecPredFn // nil without a residual
	ch       vecBatch  // the joined chunk chunk gathers into
	kb       []byte    // encoded keys: one scratch key, or the batch's keys
	kEnd     []int     // index probe: end of probe row i's key in kb
	ids      []int     // index probe: the batch's posting lists
	idEnd    []int     // index probe: end of probe row i's ids
	rb       []byte    // index probe: recheck key scratch
}

// batchProbe attaches a join's probe stage to its probe input when that
// input is a batch scan, the probe key compiles to a vector kernel and
// the residual to a predicate kernel over the joined columns; otherwise
// it returns nil and the join keeps the row probe.
func batchProbe(c *probeJoinCore, keyE, residual Expr, db *Database, params []Value) *vecJoin {
	s, ok := c.probe.(*vecScanOp)
	if !ok {
		return nil
	}
	kc := newVecCompiler(s.cols, db, params)
	key, ok := kc.compileExpr(keyE)
	if !ok {
		return nil
	}
	j := &vecJoin{
		scan: s, cols: c.cols, buildW: len(c.cols) - len(s.cols),
		leftOuter: c.leftOuter, keyE: keyE, residual: residual,
		need: make([]bool, len(c.cols)),
	}
	if c.probeIsLeft {
		j.buildOff = len(s.cols)
	} else {
		j.probeOff = j.buildW
	}
	jp := &joinProbe{j: j, key: key}
	if residual != nil {
		if jp.residual, ok = j.compiler().compilePred(residual); !ok {
			return nil
		}
	}
	for i, n := range kc.need {
		s.need[i] = s.need[i] || n
	}
	s.join, s.stage.probe, c.vec = j, jp, s
	return j
}

// compiler returns a kernel compiler over the joined schema that marks
// the columns it reads in j.need.
func (j *vecJoin) compiler() *vecCompiler {
	s := j.scan
	return &vecCompiler{env: newEvalEnv(j.cols, s.db, s.params, nil, nil), need: j.need}
}

// init records the statement snapshot and makes the probe scan load
// every probe column a joined chunk gathers. Called once, on the owner,
// before the first batch loads.
func (j *vecJoin) init(snap *snapshot) {
	j.snap = snap
	for pc := range j.scan.cols {
		if j.need[j.probeOff+pc] {
			j.scan.need[pc] = true
		}
	}
}

// compile builds one goroutine's joinProbe. The plan compiled the same
// expressions already, so this cannot fail.
func (j *vecJoin) compile() *joinProbe {
	s := j.scan
	jp := &joinProbe{j: j}
	jp.key, _ = newVecCompiler(s.cols, s.db, s.params).compileExpr(j.keyE)
	if j.residual != nil {
		jp.residual, _ = newVecCompiler(j.cols, s.db, s.params).compilePred(j.residual)
	}
	return jp
}

// batchedJoin returns the probe stage of a join operator whose probe runs
// on its scan's batches, or nil.
func batchedJoin(op operator) *vecJoin {
	var c *probeJoinCore
	switch t := op.(type) {
	case *hashJoinOp:
		c = &t.probeJoinCore
	case *indexJoinOp:
		c = &t.probeJoinCore
	default:
		return nil
	}
	if c.vec == nil {
		return nil
	}
	return c.vec.join
}

// foldCols is the schema of the rows an aggregation over the scan folds:
// the joined columns under a batched join, else the scan's.
func (s *vecScanOp) foldCols() []colInfo {
	if s.join != nil {
		return s.join.cols
	}
	return s.cols
}

// joinedSlots returns the joined output slots of the row the scan last
// emitted. When the round a worker joined ended before that row, the
// owner joins the batch's next rounds itself.
func (s *vecScanOp) joinedSlots() (int, int) {
	o, i := &s.b.jout, s.lastIdx
	for i >= o.to {
		s.stage.probe.run(s.b, o.to)
	}
	return o.slots(i)
}

// run joins one round of probe batch b, starting at probe row from, into
// b.jout: every filter-surviving probe row with a non-NULL key yields its
// matches, and under a LEFT JOIN a row with none yields one NULL-padded
// slot, until the round holds joinOutMax slots. The residual then runs as
// a predicate kernel over each chunk of slots.
func (jp *joinProbe) run(b *vecBatch, from int) {
	j, o := jp.j, &b.jout
	o.skipped += len(o.src)
	if from == 0 {
		o.skipped = 0
	}
	o.start, o.src, o.bld = o.start[:0], o.src[:0], o.bld[:0]
	o.from, o.to = from, b.n
	if b.n > from {
		keys := jp.key(b)
		if j.idx != nil {
			o.to = jp.probeIndex(b, keys, from)
		} else {
			o.to = jp.probeHash(b, keys, from)
		}
	}
	o.start = append(o.start, int32(len(o.src)))

	slots := len(o.src)
	words := (slots + 63) / 64
	o.pass = o.pass[:0]
	for w := 0; w < words; w++ {
		o.pass = append(o.pass, ^uint64(0))
	}
	if r := slots & 63; r != 0 {
		o.pass[words-1] = 1<<uint(r) - 1
	}
	if jp.residual == nil {
		return
	}
	for base := 0; base < slots; base += vecBatchRows {
		ch := jp.chunk(b, base)
		var t, nl vecBitset
		jp.residual(ch, &t, &nl)
		for w := 0; w < (ch.n+63)/64; w++ {
			o.pass[base>>6+w] &= t[w] // false and NULL both drop, as the row probe
		}
	}
	if !j.leftOuter {
		return
	}
	// A LEFT JOIN row whose every candidate failed the residual is
	// emitted once, NULL-padded, in its first candidate's slot.
	for i := o.from; i < o.to; i++ {
		lo, hi := o.slots(i)
		if lo == hi {
			continue
		}
		matched := false
		for k := lo; k < hi && !matched; k++ {
			matched = o.kept(k)
		}
		if !matched {
			o.bld[lo] = nil
			o.pass[lo>>6] |= 1 << uint(lo&63)
		}
	}
}

// emit appends probe row i's matches, or its NULL pad under a LEFT JOIN.
func (jp *joinProbe) emit(o *joinOut, i int, rows []Row) {
	if len(rows) == 0 && jp.j.leftOuter {
		o.src = append(o.src, int32(i))
		o.bld = append(o.bld, nil)
		return
	}
	for _, r := range rows {
		o.src = append(o.src, int32(i))
		o.bld = append(o.bld, r)
	}
}

// probeHash looks the probe rows' keys up in the hash join's buckets,
// from row from until the round is full, and returns where it stopped.
func (jp *joinProbe) probeHash(b *vecBatch, keys *vecCol, from int) int {
	j, o := jp.j, &b.jout
	for i := from; i < b.n; i++ {
		if len(o.src) >= joinOutMax {
			return i
		}
		o.start = append(o.start, int32(len(o.src)))
		if !b.sel.get(i) {
			continue
		}
		var bucket []Row
		if v := keys.at(i); !v.IsNull() { // NULL keys never join
			jp.kb = appendValueKey(jp.kb[:0], v)
			if bi, ok := j.keyIndex[string(jp.kb)]; ok {
				bucket = j.buckets[bi]
			}
		}
		jp.emit(o, i, bucket)
	}
	return b.n
}

// probeIndex resolves the probe rows' keys, from row from, through the
// equality index: their posting lists are copied under one latch
// acquisition (until the round is full), then each candidate is fetched
// under the statement snapshot and rechecked against its key, as
// indexJoinOp's per-row lookup does. Returns where the round stopped.
func (jp *joinProbe) probeIndex(b *vecBatch, keys *vecCol, from int) int {
	j, o := jp.j, &b.jout
	jp.kb, jp.kEnd = jp.kb[:0], jp.kEnd[:0]
	for i := from; i < b.n; i++ {
		if b.sel.get(i) {
			if v := keys.at(i); !v.IsNull() {
				jp.kb = appendValueKey(jp.kb, v)
			}
		}
		jp.kEnd = append(jp.kEnd, len(jp.kb))
	}
	jp.ids, jp.idEnd = j.idx.appendPostings(jp.ids[:0], jp.idEnd[:0], jp.kb, jp.kEnd, joinOutMax)
	klo, idLo := 0, 0
	for x, idHi := range jp.idEnd {
		i := from + x
		o.start = append(o.start, int32(len(o.src)))
		key, ids := jp.kb[klo:jp.kEnd[x]], jp.ids[idLo:idHi]
		klo, idLo = jp.kEnd[x], idHi
		if !b.sel.get(i) {
			continue
		}
		first := len(o.src)
		for _, id := range ids {
			r := j.table.visibleRow(id, j.snap)
			if r == nil {
				continue
			}
			jp.rb = appendValueKey(jp.rb[:0], r[j.idx.Column])
			if string(jp.rb) == string(key) {
				o.src = append(o.src, int32(i))
				o.bld = append(o.bld, r)
			}
		}
		if len(o.src) == first {
			jp.emit(o, i, nil)
		}
	}
	return from + len(jp.idEnd)
}

// chunk gathers output slots [base, base+vecBatchRows) of probe batch b
// into the goroutine's joined chunk: the joined columns kernels read,
// and the residual's verdict so far as the selection.
func (jp *joinProbe) chunk(b *vecBatch, base int) *vecBatch {
	j, o, ch := jp.j, &b.jout, &jp.ch
	n := min(vecBatchRows, len(o.src)-base)
	if ch.cols == nil {
		ch.cols = make([]vecCol, len(j.cols))
		ch.colBuf = make([][]Value, len(j.cols))
	}
	ch.idx, ch.n, ch.base, ch.probe, ch.vj = b.idx, n, o.skipped+base, b, j
	ch.src, ch.bld = o.src[base:base+n], o.bld[base:base+n]
	ch.sel = vecBitset{}
	copy(ch.sel[:], o.pass[base>>6:(base+n+63)>>6])
	for c := range ch.cols {
		if !j.need[c] {
			ch.cols[c] = vecCol{}
			continue
		}
		buf := ch.colBuf[c]
		if buf == nil {
			buf = make([]Value, vecBatchRows)
			ch.colBuf[c] = buf
		}
		if pc := c - j.probeOff; pc >= 0 && pc < len(j.scan.cols) {
			vals := b.cols[pc].vals
			for k, p := range ch.src {
				buf[k] = vals[p]
			}
		} else {
			bc := c - j.buildOff
			for k, r := range ch.bld {
				if r == nil {
					buf[k] = Null
				} else {
					buf[k] = r[bc]
				}
			}
		}
		ch.cols[c].setVals(buf[:n])
	}
	return ch
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
		preds: preds, stage: batchStage{preds: vpreds}, need: vc.need, qc: qc,
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
// compile to kernels over the vectorized scan — or, when vc compiles over
// a batched join's columns (vecJoin.compiler), over the joined chunks —
// marking the columns they read. All-or-nothing, like the projection. The
// scan drops needRows — batches carry only the kernel columns, and the
// representative row a first-seen group needs is materialised lazily
// (materializeRow). The fold takes the scan's worker pool only when every
// aggregate's partial states merge exactly.
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
// kernels: the scan's batch stage, then the group and argument kernels
// over the batches it yields (the joined chunks, under a batched join).
type aggKernels struct {
	stage *batchStage
	group []vecExprFn
	args  []vecExprFn
}

// compileKernels compiles the plan's kernels for one goroutine. The plan
// compiled the same expressions already, so this cannot fail.
func (vp *vecAggPlan) compileKernels() aggKernels {
	s := vp.src
	vc := newVecCompiler(s.foldCols(), s.db, s.params)
	k := aggKernels{
		stage: s.workerStage(),
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

// scanOrd orders the rows a scan yields: batch index, then slot within
// the batch's output (a joined batch's output can exceed vecBatchRows
// slots).
type scanOrd struct{ batch, slot int }

func (a scanOrd) less(b scanOrd) bool {
	return a.batch < b.batch || a.batch == b.batch && a.slot < b.slot
}

// aggPartial is one goroutine's GROUP BY state over the batches it
// folded: groups in first-seen order, each with the scan ordinal of the
// row that founded it, plus the scan counters of those batches.
type aggPartial struct {
	index  map[string]int
	groups []*aggGroup
	first  []scanOrd
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

// fold adds one loaded batch's surviving rows — or, under a batched
// join, its joined chunks' rows — to the partial groups. morsel keys the
// order-sensitive float sums (agg.go morselAdder): the (probe) batch
// index under the pool, 0 when one goroutine folds everything, so serial
// results match the row engine's single left-to-right fold.
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
	jp := k.stage.probe
	if jp == nil {
		return p.foldRows(b, k, aggs, morsel)
	}
	for {
		for base := 0; base < len(b.jout.src); base += vecBatchRows {
			if err := p.foldRows(jp.chunk(b, base), k, aggs, morsel); err != nil {
				return err
			}
		}
		if b.jout.to >= b.n {
			return nil
		}
		jp.run(b, b.jout.to) // the next round of a fanned-out batch
	}
}

// foldRows folds the selected rows of one batch or joined chunk.
func (p *aggPartial) foldRows(b *vecBatch, k *aggKernels, aggs []*FuncCall, morsel int) error {
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
				p.first = append(p.first, scanOrd{b.idx, b.base + i})
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
		nullRow = make(Row, len(s.foldCols())) // zero Values are NULL
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
		if owner.err = k.stage.run(&s.src, &b, idx); owner.err == nil {
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
		groups = append(groups, &aggGroup{states: states, repRow: make(Row, len(s.foldCols()))})
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
				err := k.stage.run(&vp.src.src, &b, idx)
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
		first scanOrd
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
			if first.less(m.first) {
				m.g.keys, m.g.repRow, m.first = g.keys, g.repRow, first
			}
			for i := range m.g.states {
				m.g.states[i].(mergeableAggState).merge(g.states[i])
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].first.less(all[b].first) })
	out := make([]*aggGroup, len(all))
	for i, m := range all {
		out[i] = m.g
	}
	return out
}
