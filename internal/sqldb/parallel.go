package sqldb

import (
	"runtime"
	"sync/atomic"
)

// This file holds the engine's intra-query parallelism. There is one
// parallel scan pipeline, and it rides on the vectorized batches of
// vecops.go: the 1024-slot batch is the morsel. A pool of workers claims
// batch indexes from an atomic counter (Leis et al.'s morsel-driven
// scheduling: fast workers steal work from slow ones without static
// partitioning), loads the batch — decoding a sealed block or gathering
// a heap block's visible rows — and runs the fused filter kernels on it.
// When the scan is the probe input of an equi-join whose key compiles
// to a kernel, the same worker also probes the batch — against the hash
// join's buckets or through the equality index (vecJoin). Then either
//
//   - the owner goroutine takes the filtered (and joined) batches
//     strictly in batch order (batchGather), so projections, sorts and
//     joins above the scan see exactly the serial stream; or
//   - for aggregation, each worker runs the aggregate kernels over its
//     batches (or their joined chunks) into private partial states and
//     the owner merges them, restoring serial first-seen group order from
//     each group's minimal scan ordinal (runAggregationVec) — unless the
//     first batch founds so many groups that duplicated per-worker groups
//     would cost more than the pool saves, in which case the owner folds
//     every batch.
//
// Hash-join builds run on the owner, before any probe batch loads.
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
