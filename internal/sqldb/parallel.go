package sqldb

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the engine's intra-query parallelism. There is one
// parallel scan pipeline, and it rides on the vectorized batches of
// vecops.go: the 1024-slot batch is the morsel. A pool of workers claims
// batch indexes from an atomic counter (Leis et al.'s morsel-driven
// scheduling: fast workers steal work from slow ones without static
// partitioning), loads the batch — decoding a sealed block or gathering
// a heap block's visible rows — and runs the fused filter kernels on it.
// Then either
//
//   - the owner goroutine takes the filtered batches strictly in batch
//     order (batchGather), so projections, sorts and join probes above
//     the scan see exactly the serial stream; or
//   - for aggregation, each worker runs the aggregate kernels into
//     private partial states and the owner merges them, restoring serial
//     first-seen group order from each group's minimal scan ordinal
//     (runAggregationVec) — unless the first batch founds so many groups
//     that duplicated per-worker groups would cost more than the pool
//     saves, in which case the owner folds every batch.
//
// The only other parallel operator is the hash-join build
// (hashJoinOp.buildParallel below): workers evaluate and encode build
// keys per 1024-row chunk, then one worker per partition builds its
// shard's buckets in global build-row order.
//
// Eligibility is decided at plan time: only top-level statements, only
// scans whose filters compile to vector kernels (kernels never call
// functions or run subqueries, so they are safe off the owner
// goroutine), and only above batchMinRows rows so small scans never pay
// pool overhead. Ordered (sort-eliding) scans, index access paths, merge
// joins and correlated probes stay serial.
//
// Accounting: workers never touch the shared queryCtx. Each batch carries
// its own counts, which the owner folds into the per-query recorder, so
// the EXPLAIN ANALYZE accounting property (per-operator sums == per-query
// totals) holds unchanged under parallel execution.

// parallelMaxWorkers caps the default pool size; WithMaxWorkers can raise
// it explicitly.
const parallelMaxWorkers = 8

// parallelWorkersActive counts live worker goroutines engine-wide. Test
// instrumentation: the cancellation/leak tests assert it returns to zero
// after Rows.Close.
var parallelWorkersActive atomic.Int64

// defaultMaxWorkers sizes a database's pool from the runtime: GOMAXPROCS
// capped at parallelMaxWorkers. Under GOMAXPROCS=1 every plan stays
// serial.
func defaultMaxWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), parallelMaxWorkers))
}

// parallelSafeExpr reports whether an expression may be evaluated on a
// worker goroutine: no subqueries (they execute subplans against shared
// planner state) and no function calls (the registry cannot tell builtins
// from registered UDFs — including LM UDFs — so every call stays on the
// owner goroutine). Plain column refs, parameters, literals, arithmetic,
// comparisons, CASE, BETWEEN, IN (value list), LIKE and IS NULL are safe.
func parallelSafeExpr(e Expr) bool {
	safe := true
	walkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *Subquery, *ExistsExpr, *FuncCall:
			safe = false
		case *InList:
			if t.Sub != nil {
				safe = false
			}
		}
		return safe
	})
	return safe
}

// mergeableAggregates reports whether every collected aggregate can be
// computed as per-worker partials and merged without divergence from the
// engine's defined fold order:
//
//   - COUNT, MIN, MAX: always order-insensitive.
//   - SUM / AVG / TOTAL: integer partial sums merge exactly; float sums
//     are kept per batch and folded in ascending batch order (agg.go
//     morselAdder), so the result is left-to-right within each batch,
//     then batch by batch — a deterministic function of the data and the
//     batch size, independent of worker count and scheduling.
//   - GROUP_CONCAT: order-sensitive across workers — never parallel.
//   - DISTINCT aggregates: the dedup set cannot be merged — serial.
func mergeableAggregates(aggs []*FuncCall) bool {
	for _, fc := range aggs {
		if fc.Distinct {
			return false
		}
		switch fc.Name {
		case "COUNT", "MIN", "MAX":
		case "SUM", "AVG", "TOTAL":
			if len(fc.Args) != 1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// keyPartition assigns an encoded join key to one of n build partitions
// (FNV-1a).
func keyPartition(b []byte, n int) int {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// ---------------------------------------------------------------------------
// Parallel hash-join build

// nullPart marks a build row whose key evaluated to NULL (never joins).
const nullPart = 255

// buildParallel hashes the build side with a two-phase partitioned build.
// Phase 1: workers claim 1024-row chunks of the build rows and evaluate + encode
// each row's key into per-row slots of shared arrays — disjoint indices,
// so no synchronisation beyond the chunk claim. Phase 2: one worker per
// partition walks the arrays in global row order inserting its
// partition's rows, so within every bucket the row order — and therefore
// every probe result — is identical to the serial build. Fork-join: all
// workers are joined before this returns.
func (h *hashJoinOp) buildParallel(buildRows []Row, buildKeyE Expr,
	db *Database, params []Value, outer *evalEnv) error {

	n := len(buildRows)
	nChunks := (n + vecBatchRows - 1) / vecBatchRows
	nw := db.maxWorkers
	if nw > nChunks {
		nw = nChunks
	}
	if nw < 2 {
		nw = 2
	}
	if nw > nullPart-1 {
		nw = nullPart - 1 // partition ids must fit uint8 below the NULL mark
	}
	nParts := nw

	keys := make([][]byte, n)
	parts := make([]uint8, n)

	// Phase 1: key evaluation. Each worker compiles its own copy of the
	// key expression (here, on the owner goroutine) and writes only the
	// row indices it claimed. Key bytes go into a per-worker append
	// buffer; grown buffers reallocate, which leaves previously taken
	// subslices pointing at the old backing array — still valid.
	type keyErr struct {
		idx int
		err error
	}
	preds := make([]compiledExpr, nw)
	envs := make([]*evalEnv, nw)
	for w := 0; w < nw; w++ {
		env := newEvalEnv(h.buildCols, db, params, outer, nil)
		p, err := compileExpr(buildKeyE, env)
		if err != nil {
			return err
		}
		envs[w], preds[w] = env, p
	}
	errSlots := make([]keyErr, nw)
	var claim atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		parallelWorkersActive.Add(1)
		go func(w int) {
			defer func() {
				parallelWorkersActive.Add(-1)
				wg.Done()
			}()
			env, key := envs[w], preds[w]
			errSlots[w].idx = -1
			var buf []byte
			for {
				m := int(claim.Add(1)) - 1
				if m >= nChunks || abort.Load() {
					return
				}
				lo, hi := m*vecBatchRows, (m+1)*vecBatchRows
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					env.row = buildRows[i]
					k, err := key()
					if err != nil {
						errSlots[w] = keyErr{idx: i, err: err}
						abort.Store(true)
						return
					}
					if k.IsNull() {
						parts[i] = nullPart
						continue
					}
					start := len(buf)
					buf = appendValueKey(buf, k)
					keys[i] = buf[start:len(buf):len(buf)]
					parts[i] = uint8(keyPartition(keys[i], nParts))
				}
			}
		}(w)
	}
	wg.Wait()
	firstErr, firstIdx := error(nil), -1
	for w := range errSlots {
		if errSlots[w].err != nil && (firstIdx < 0 || errSlots[w].idx < firstIdx) {
			firstErr, firstIdx = errSlots[w].err, errSlots[w].idx
		}
	}
	if firstErr != nil {
		return firstErr
	}

	// Phase 2: per-partition builds. Each worker owns one shard and scans
	// the full parts array — a cheap sequential byte read — inserting its
	// rows in global order.
	h.shards = make([]hashJoinShard, nParts)
	wg = sync.WaitGroup{}
	for p := 0; p < nParts; p++ {
		wg.Add(1)
		parallelWorkersActive.Add(1)
		go func(p int) {
			defer func() {
				parallelWorkersActive.Add(-1)
				wg.Done()
			}()
			sh := &h.shards[p]
			sh.keyIndex = make(map[string]int)
			for i := 0; i < n; i++ {
				if parts[i] != uint8(p) {
					continue
				}
				b, ok := sh.keyIndex[string(keys[i])]
				if !ok {
					b = len(sh.buckets)
					sh.buckets = append(sh.buckets, nil)
					sh.keyIndex[string(keys[i])] = b
				}
				sh.buckets[b] = append(sh.buckets[b], buildRows[i])
			}
		}(p)
	}
	wg.Wait()
	for p := range h.shards {
		h.nKeys += len(h.shards[p].keyIndex)
	}
	h.buildWorkers = nw
	h.lookup = func(key []byte) int {
		sh := &h.shards[keyPartition(key, nParts)]
		if i, ok := sh.keyIndex[string(key)]; ok {
			h.curBucket = sh.buckets[i]
			return len(h.curBucket)
		}
		h.curBucket = nil
		return 0
	}
	return nil
}
