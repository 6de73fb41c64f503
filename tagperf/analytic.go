package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tag"
	"tag/internal/sqldb"
)

// The analytic-sql workload: a seeded fact table (sales) and a dimension
// (stores), loaded and sealed into column segments during set-up, queried
// by a fixed mix of six shapes with ? parameters through Database.Query,
// one client in a closed loop. One op is one statement. Every result is
// compared with the answer computed in plain Go from the generated rows.

const (
	salesRows  = 20_000
	storeRows  = 1_000
	regions    = 8
	products   = 200
	shapeInsts = 16 // parameter instances per shape
)

type sale struct {
	id, store, qty, day int64
	product             string
	price               float64
}

// salesData is the generated content of both tables.
type salesData struct {
	sales       []sale
	storeRegion []string
	salesRows   [][]any
	storeRows   [][]any
}

// genSales generates the tables from a seed.
func genSales(seed int64, n int) *salesData {
	r := rand.New(rand.NewSource(seed))
	d := &salesData{}
	for i := 0; i < storeRows; i++ {
		region := fmt.Sprintf("region-%d", r.Intn(regions))
		d.storeRegion = append(d.storeRegion, region)
		d.storeRows = append(d.storeRows, []any{i, region, fmt.Sprintf("city-%d", r.Intn(50))})
	}
	for i := 0; i < n; i++ {
		s := sale{
			id:      int64(i),
			store:   int64(r.Intn(storeRows)),
			product: fmt.Sprintf("product-%03d", r.Intn(products)),
			qty:     int64(1 + r.Intn(20)),
			price:   float64(r.Intn(10_000)) / 100,
			day:     int64(r.Intn(365)),
		}
		d.sales = append(d.sales, s)
		d.salesRows = append(d.salesRows, []any{s.id, s.store, s.product, s.qty, s.price, s.day})
	}
	return d
}

// sqlShape is one statement shape of the mix.
type sqlShape struct {
	key     string // metric name: sqldb.<key>_ms
	sql     string
	params  func(r *rand.Rand) []any
	expect  func(d *salesData, p []any) [][]any // rows of int64, float64, string or nil (NULL)
	ordered bool                                // compare rows in order (else sorted by the first column)
}

var sqlShapes = []sqlShape{
	{
		key: "filter_count",
		sql: "SELECT COUNT(*) FROM sales WHERE qty > ? AND price < ?",
		params: func(r *rand.Rand) []any {
			return []any{int64(1 + r.Intn(19)), float64(10 + r.Intn(80))}
		},
		expect: func(d *salesData, p []any) [][]any {
			var n int64
			for _, s := range d.sales {
				if s.qty > p[0].(int64) && s.price < p[1].(float64) {
					n++
				}
			}
			return [][]any{{n}}
		},
	},
	{
		key: "global_agg",
		sql: "SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), SUM(price) FROM sales WHERE qty < ?",
		params: func(r *rand.Rand) []any {
			return []any{int64(2 + r.Intn(19))}
		},
		expect: func(d *salesData, p []any) [][]any {
			var n, qty int64
			lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
			for _, s := range d.sales {
				if s.qty < p[0].(int64) {
					n++
					qty += s.qty
					lo, hi, sum = math.Min(lo, s.price), math.Max(hi, s.price), sum+s.price
				}
			}
			if n == 0 {
				return [][]any{{n, nil, nil, nil, nil}}
			}
			return [][]any{{n, qty, lo, hi, sum}}
		},
	},
	{
		key: "group_by",
		sql: "SELECT product, COUNT(*), SUM(qty) FROM sales WHERE price > ? GROUP BY product",
		params: func(r *rand.Rand) []any {
			return []any{float64(r.Intn(95))}
		},
		expect: func(d *salesData, p []any) [][]any {
			groups := map[string][2]int64{}
			for _, s := range d.sales {
				if s.price > p[0].(float64) {
					g := groups[s.product]
					groups[s.product] = [2]int64{g[0] + 1, g[1] + s.qty}
				}
			}
			return groupRows(groups)
		},
	},
	{
		key: "join_agg",
		sql: "SELECT st.region, COUNT(*), SUM(s.qty) FROM sales s JOIN stores st ON s.store_id = st.id WHERE s.qty > ? GROUP BY st.region",
		params: func(r *rand.Rand) []any {
			return []any{int64(r.Intn(19))}
		},
		expect: func(d *salesData, p []any) [][]any {
			groups := map[string][2]int64{}
			for _, s := range d.sales {
				if s.qty > p[0].(int64) {
					k := d.storeRegion[s.store]
					g := groups[k]
					groups[k] = [2]int64{g[0] + 1, g[1] + s.qty}
				}
			}
			return groupRows(groups)
		},
	},
	{
		key: "top_k",
		sql: "SELECT id, price FROM sales WHERE qty >= ? ORDER BY price DESC, id LIMIT 10",
		params: func(r *rand.Rand) []any {
			return []any{int64(1 + r.Intn(20))}
		},
		expect: func(d *salesData, p []any) [][]any {
			var hits []sale
			for _, s := range d.sales {
				if s.qty >= p[0].(int64) {
					hits = append(hits, s)
				}
			}
			sort.Slice(hits, func(i, j int) bool {
				if hits[i].price != hits[j].price {
					return hits[i].price > hits[j].price
				}
				return hits[i].id < hits[j].id
			})
			var rows [][]any
			for _, s := range hits[:min(10, len(hits))] {
				rows = append(rows, []any{s.id, s.price})
			}
			return rows
		},
		ordered: true,
	},
	{
		key: "range_agg",
		sql: "SELECT COUNT(*), SUM(qty) FROM sales WHERE day BETWEEN ? AND ?",
		params: func(r *rand.Rand) []any {
			lo := int64(r.Intn(335))
			return []any{lo, lo + int64(r.Intn(31))}
		},
		expect: func(d *salesData, p []any) [][]any {
			var n, qty int64
			for _, s := range d.sales {
				if s.day >= p[0].(int64) && s.day <= p[1].(int64) {
					n++
					qty += s.qty
				}
			}
			if n == 0 {
				return [][]any{{n, nil}}
			}
			return [][]any{{n, qty}}
		},
	},
}

// groupRows renders per-key (count, sum) groups as rows in key order.
func groupRows(groups map[string][2]int64) [][]any {
	rows := make([][]any, 0, len(groups))
	for k, g := range groups {
		rows = append(rows, []any{k, g[0], g[1]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].(string) < rows[j][0].(string) })
	return rows
}

// shapeInst is one shape with bound parameters and its expected rows.
type shapeInst struct {
	params []any
	want   [][]any
}

// genShapeInsts draws shapeInsts parameter sets per shape.
func genShapeInsts(r *rand.Rand, d *salesData) [][]shapeInst {
	out := make([][]shapeInst, len(sqlShapes))
	for si, sh := range sqlShapes {
		for i := 0; i < shapeInsts; i++ {
			p := sh.params(r)
			out[si] = append(out[si], shapeInst{params: p, want: sh.expect(d, p)})
		}
	}
	return out
}

// loadSales creates, loads and seals the two tables in a database with
// default options, and returns the seal time.
func loadSales(d *salesData) (*tag.Database, float64, error) {
	db := tag.NewDatabase()
	for _, ddl := range []string{
		"CREATE TABLE stores (id INTEGER PRIMARY KEY, region TEXT, city TEXT)",
		"CREATE TABLE sales (id INTEGER PRIMARY KEY, store_id INTEGER, product TEXT, qty INTEGER, price REAL, day INTEGER)",
		"CREATE INDEX sales_day ON sales (day)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			return nil, 0, err
		}
	}
	if err := db.InsertRows("stores", d.storeRows); err != nil {
		return nil, 0, err
	}
	if err := db.InsertRows("sales", d.salesRows); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	db.Seal()
	return db, time.Since(start).Seconds(), nil
}

// resultMatches compares engine rows with expected rows: ints exactly,
// floats to a relative 1e-9 (summation order differs), text exactly.
func resultMatches(res *sqldb.Result, want [][]any, ordered bool) bool {
	if len(res.Rows) != len(want) {
		return false
	}
	got := res.Rows
	if !ordered { // group rows, expected in key order
		got = append([]sqldb.Row(nil), got...)
		sort.Slice(got, func(i, j int) bool { return got[i][0].AsText() < got[j][0].AsText() })
	}
	for i, row := range want {
		if len(got[i]) != len(row) {
			return false
		}
		for j, w := range row {
			if !valueMatches(got[i][j], w) {
				return false
			}
		}
	}
	return true
}

func valueMatches(v sqldb.Value, w any) bool {
	switch w := w.(type) {
	case nil:
		return v.IsNull()
	case int64:
		return v.Kind() == sqldb.KindInt && v.AsInt() == w
	case float64:
		return v.IsNumeric() && math.Abs(v.AsFloat()-w) <= 1e-9*math.Max(1, math.Abs(w))
	case string:
		return v.Kind() == sqldb.KindText && v.AsText() == w
	}
	return false
}

// sqlPhase is one closed-loop measurement.
type sqlPhase struct {
	lat      latencies
	byShape  []latencies
	returned int
	failed   int
}

// sqlLoop runs rounds of the six shapes, each round in seeded order with
// seeded parameter instances, until d has elapsed.
func sqlLoop(db *tag.Database, insts [][]shapeInst, r *rand.Rand, d time.Duration, log *spanLog) *sqlPhase {
	ph := &sqlPhase{byShape: make([]latencies, len(sqlShapes))}
	deadline := time.Now().Add(d)
	order := make([]int, len(sqlShapes))
	for time.Now().Before(deadline) {
		for i := range order {
			order[i] = i
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, si := range order {
			in := insts[si][r.Intn(len(insts[si]))]
			log.nextOp()
			sp := log.begin("sqldb." + sqlShapes[si].key)
			start := time.Now()
			res, err := db.Query(sqlShapes[si].sql, in.params...)
			dur := time.Since(start)
			log.end(sp)
			ph.lat.add(dur)
			ph.byShape[si].add(dur)
			if err != nil || !resultMatches(res, in.want, sqlShapes[si].ordered) {
				ph.failed++
				continue
			}
			ph.returned += len(res.Rows)
		}
	}
	return ph
}

func runAnalyticSQL(cfg config) (*report, error) {
	data := genSales(cfg.seed, salesRows)
	base := heapMB()
	var sealS []float64
	db, setupS, err := setupTimes(func() (*tag.Database, error) {
		db, seal, err := loadSales(data)
		if err != nil {
			return nil, err
		}
		sealS = append(sealS, seal)
		// Warm: plan and run every shape once.
		for _, sh := range sqlShapes {
			if _, err := db.Query(sh.sql, sh.params(rand.New(rand.NewSource(0)))...); err != nil {
				db.Close()
				return nil, fmt.Errorf("%s: %w", sh.key, err)
			}
		}
		return db, nil
	}, func(db *tag.Database) { db.Close() })
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rep := &report{}
	rep.add("setup_s", setupS, "s")
	rep.add("heap_mb", heapMB()-base, "MB")
	sealedSetup := db.Stats().SegmentsSealed

	// The parameter sets are the same for every seed, so each seed runs
	// the same mix of selectivities; the seed picks the rows and the order.
	insts := genShapeInsts(rand.New(rand.NewSource(1)), data)
	r := rand.New(rand.NewSource(cfg.seed))
	untracedD, tracedD := phases(cfg)
	start := time.Now()
	ph := sqlLoop(db, insts, r, untracedD, nil)
	elapsed := time.Since(start)
	rep.attempted, rep.failed = len(ph.lat), ph.failed
	addEndToEnd(rep, ph.lat, elapsed)
	if !cfg.trace {
		return rep, nil
	}

	before := db.Stats()
	log := newSpanLog(time.Now())
	tr := sqlLoop(db, insts, r, tracedD, log)
	after := db.Stats()
	rep.attempted += len(tr.lat)
	rep.failed += tr.failed
	rep.spans = log
	n := len(tr.lat)
	rep.add("trace_overhead_ms", percentile(tr.lat, 50)-percentile(ph.lat, 50), "ms")
	for si, sh := range sqlShapes {
		rep.add("sqldb."+sh.key+"_ms", percentile(tr.byShape[si], 50), "ms")
		plan, err := db.Explain(sh.sql, insts[si][0].params...)
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("plan sqldb.%s: %s", sh.key, planKind(plan)))
	}
	rep.add("sqldb.vector_batches_per_query", perOp(after.VectorBatches-before.VectorBatches, n), "count")
	rep.add("sqldb.row_fallbacks_per_query", perOp(after.RowFallbacks-before.RowFallbacks, n), "count")
	rep.add("sqldb.segment_scans_per_query", perOp(after.SegmentScans-before.SegmentScans, n), "count")
	rep.add("sqldb.decoded_blocks_per_query", perOp(after.DecodedBlocks-before.DecodedBlocks, n), "count")
	rep.add("sqldb.rows_scanned_per_row_returned", perOp(after.RowsScanned-before.RowsScanned, tr.returned), "count")
	rep.add("sqldb.seal_s", median(sealS), "s")
	rep.add("sqldb.segments_sealed_setup", float64(sealedSetup), "count")
	rep.notes = append(rep.notes, log.selfNotes()...)
	return rep, nil
}

// planKind condenses an Explain tree to its operators, outermost first.
func planKind(lines []string) string {
	var ops []string
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if i := strings.Index(l, ":"); i > 0 {
			l = l[:i]
		}
		ops = append(ops, l)
	}
	return strings.Join(ops, " > ")
}
