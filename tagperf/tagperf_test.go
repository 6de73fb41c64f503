package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"tag/internal/core"
	"tag/internal/llm"
)

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {50, 50}, {50.5, 51}, {99, 99}, {99.5, 100}, {100, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	// p99 of 1000 samples leaves exactly 10 samples above it.
	var k []float64
	for i := 1; i <= 1000; i++ {
		k = append(k, float64(i))
	}
	if got := percentile(k, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestGenerationDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(genSales(7, 3000), genSales(7, 3000)) {
		t.Error("genSales differs for one seed")
	}
	if reflect.DeepEqual(genSales(7, 3000).sales, genSales(8, 3000).sales) {
		t.Error("genSales ignores the seed")
	}
	if !reflect.DeepEqual(genAccounts(7, 3000), genAccounts(7, 3000)) {
		t.Error("genAccounts differs for one seed")
	}
	if reflect.DeepEqual(genAccounts(7, 3000), genAccounts(8, 3000)) {
		t.Error("genAccounts ignores the seed")
	}
	d := genSales(7, 3000)
	a := genShapeInsts(rand.New(rand.NewSource(3)), d)
	b := genShapeInsts(rand.New(rand.NewSource(3)), d)
	if !reflect.DeepEqual(a, b) {
		t.Error("shape instances differ for one seed")
	}
	if !reflect.DeepEqual(tagOrder(rand.New(rand.NewSource(3)), 80), tagOrder(rand.New(rand.NewSource(3)), 80)) {
		t.Error("tag order differs for one seed")
	}
	if reflect.DeepEqual(tagOrder(rand.New(rand.NewSource(3)), 80), tagOrder(rand.New(rand.NewSource(4)), 80)) {
		t.Error("tag order ignores the seed")
	}
	ops := func(seed int64) (out []wireOp) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			out = append(out, nextWireOp(r))
		}
		return out
	}
	if !reflect.DeepEqual(ops(5), ops(5)) {
		t.Error("wire op sequence differs for one seed")
	}
}

// TestTagQualityIdenticalAcrossSeeds: the seed only reorders the answers,
// so Table 1 is the same for two seeds and matches the pinned rows.
func TestTagQualityIdenticalAcrossSeeds(t *testing.T) {
	var rows [][6]tableRow
	for _, seed := range []int64{1, 2} {
		st, err := setupTag()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, st.table1(st.referencePass(rand.New(rand.NewSource(seed)))))
	}
	if rows[0] != rows[1] {
		t.Fatalf("Table 1 depends on the seed:\n%+v\n%+v", rows[0], rows[1])
	}
	for m, row := range rows[0] {
		if !matchesGolden(row, table1Golden[m]) {
			t.Errorf("%s: %+v, want %+v", tagMethodKeys[m], row, table1Golden[m])
		}
	}
	// The in-order harness (core.RunBenchmark, which prints Table 1) agrees.
	envs, err := core.BuildEnvs()
	if err != nil {
		t.Fatal(err)
	}
	methods := core.NewDefaultMethods(llm.DefaultProfile())
	rep, err := core.RunBenchmark(context.Background(), envs, methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	for m, meth := range methods {
		cell := rep.CellFor(meth.Name(), func(core.Outcome) bool { return true })
		row := rows[0][m]
		if cell.Exact != float64(row.correct)/float64(row.scored) || math.Abs(cell.Seconds-row.simET) > 1e-8 {
			t.Errorf("%s: core.RunBenchmark gives %.4f/%.6f, shuffled order %+v", meth.Name(), cell.Exact, cell.Seconds, row)
		}
	}
	hw := rows[0][handwrittenIdx]
	if em := float64(hw.correct) / float64(hw.scored); em < 0.58325 || em >= 0.58335 {
		t.Errorf("hand-written TAG exact match %.4f, want 0.5833", em)
	}
	if hw.simET < 2.5985 || hw.simET >= 2.5995 {
		t.Errorf("hand-written TAG sim ET %.4f, want 2.599", hw.simET)
	}
}

// TestAnalyticShapesMatchAndChecksBite runs every shape on a small sealed
// table: the engine agrees with the plain-Go answers, and a wrong answer
// is caught.
func TestAnalyticShapesMatchAndChecksBite(t *testing.T) {
	d := genSales(11, 6000)
	db, _, err := loadSales(d)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	insts := genShapeInsts(rand.New(rand.NewSource(11)), d)
	for si, sh := range sqlShapes {
		for _, in := range insts[si] {
			res, err := db.Query(sh.sql, in.params...)
			if err != nil {
				t.Fatalf("%s: %v", sh.key, err)
			}
			if !resultMatches(res, in.want, sh.ordered) {
				t.Fatalf("%s %v: engine %v, want %v", sh.key, in.params, res.Rows, in.want)
			}
		}
		in := insts[si][0]
		res, _ := db.Query(sh.sql, in.params...)
		wrong := append([][]any(nil), in.want...)
		wrong[0] = append([]any(nil), wrong[0]...)
		switch v := wrong[0][len(wrong[0])-1].(type) {
		case int64:
			wrong[0][len(wrong[0])-1] = v + 1
		case float64:
			wrong[0][len(wrong[0])-1] = v + 0.01
		}
		if resultMatches(res, wrong, sh.ordered) {
			t.Errorf("%s: a wrong expected answer was accepted", sh.key)
		}
	}
	ph := sqlLoop(db, insts, rand.New(rand.NewSource(1)), 50*time.Millisecond, nil)
	if ph.failed != 0 || len(ph.lat) == 0 {
		t.Errorf("loop: %d failed of %d", ph.failed, len(ph.lat))
	}
}

func TestSpanSelfTimes(t *testing.T) {
	l := &spanLog{open: -1, spans: []span{
		{name: "core.rag", start: 0, end: 100, parent: -1},
		{name: "llm.complete", start: 10, end: 40, parent: 0},
		{name: "llm.batch", start: 50, end: 70, parent: 0},
	}}
	if got := l.selfTimes(); !reflect.DeepEqual(got, []time.Duration{50, 30, 20}) {
		t.Errorf("self times %v", got)
	}
	if got := l.layerSelf(); got["core"] != 50 || got["llm"] != 50 {
		t.Errorf("layer self %v", got)
	}
	other := &spanLog{open: -1, spans: []span{{name: "a", parent: -1}, {name: "b", parent: 0, op: 1}}, op: 1}
	l.merge(other)
	if l.spans[4].parent != 3 || l.spans[4].op != 2 || l.spans[3].op != 1 {
		t.Errorf("merge re-based wrongly: %+v", l.spans[3:])
	}
	var nilLog *spanLog
	nilLog.end(nilLog.begin("x")) // untraced paths must not panic
}

// TestBenchmarkJSONMatchesDeclared keeps BENCHMARK.json in step with the
// metrics the program reports.
func TestBenchmarkJSONMatchesDeclared(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{wlTag, wlSQL, wlWire}) || len(workloads) != len(names) {
		t.Errorf("workloads %v", names)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, declared %+v", kind, i, g, d)
			}
			if (g.Bound != nil) != (d.bound != 0) || (g.Bound != nil && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, declared %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
