package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"tag"
	"tag/internal/core"
	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
	"tag/internal/world"
)

// The tag-questions workload: the 80 TAG-Bench queries answered by the
// five Table 1 methods (core.Method.Answer) and by tag.System.Ask, the
// automatic-synthesis TAG pipeline, interleaved in a seeded order, one
// client in a closed loop. One op is one answer.

// tagMethodKeys name the six answerers in metric names (core.<key>_ms),
// in core.NewDefaultMethods order followed by Ask.
var tagMethodKeys = []string{"text2sql", "rag", "rerank", "text2sql_lm", "handwritten", "ask"}

const (
	ragIdx         = 1
	handwrittenIdx = 4
	askIdx         = 5
)

// tableRow is one method's Table 1 row over the 80 queries.
type tableRow struct {
	correct, scored, errors int
	simET                   float64 // mean simulated LM seconds per query
}

// table1Golden is every method's row at the reference commit (Table 1 of
// the reproduction; the Ask row is the auto-syn TAG pipeline). The
// reference pass of every run must reproduce it exactly, so a change in
// answer quality or in simulated cost shows up as failed ops.
var table1Golden = [6]tableRow{
	{correct: 10, scored: 60, errors: 0, simET: 1.9067800000},
	{correct: 1, scored: 60, errors: 0, simET: 1.6157750000},
	{correct: 2, scored: 60, errors: 0, simET: 3.3918000000},
	{correct: 7, scored: 60, errors: 26, simET: 4.3752316667},
	{correct: 35, scored: 60, errors: 0, simET: 2.5989383333},
	{correct: 10, scored: 60, errors: 8, simET: 3.7404566667},
}

// outcome is one answer's observable result.
type outcome struct {
	print    string // values, text and error-ness, for exact comparison
	failed   bool   // the method returned an error
	correct  bool   // exact match (non-aggregation queries)
	coverage float64
	simSec   float64
}

// answerer answers one query with one method.
type answerer func(ctx context.Context, q *tagbench.Query) (*core.Answer, error)

type tagState struct {
	queries []*tagbench.Query
	envs    map[string]*core.Env
	truth   []*tagbench.Truth
	methods []core.Method          // the five Table 1 methods
	systems map[string]*tag.System // one per domain, for Ask
	dbs     []*sqldb.Database
	indexS  float64 // RAG index build time, all domains
	ref     [][6]outcome
}

// setupTag builds the five domain databases, one TAG system per domain,
// the ground truth of every query and the RAG indexes.
func setupTag() (*tagState, error) {
	st := &tagState{queries: tagbench.Queries(), systems: map[string]*tag.System{}}
	envs, err := core.BuildEnvs()
	if err != nil {
		return nil, err
	}
	st.envs = envs
	w := world.Default()
	for _, q := range st.queries {
		tr, err := tagbench.ComputeTruth(envs[q.Spec.Domain].DB, w, q.Spec)
		if err != nil {
			return nil, fmt.Errorf("truth for %s: %w", q.ID, err)
		}
		st.truth = append(st.truth, tr)
	}
	st.methods = core.NewDefaultMethods(llm.DefaultProfile())
	for name, env := range envs {
		st.systems[name] = tag.New(name, env.DB)
		st.dbs = append(st.dbs, env.DB)
	}
	// The retrieval baselines embed every row of a domain on first use;
	// one RAG answer per domain builds those indexes now.
	start := time.Now()
	seen := map[string]bool{}
	for _, q := range st.queries {
		if !seen[q.Spec.Domain] {
			seen[q.Spec.Domain] = true
			if _, err := st.methods[ragIdx].Answer(context.Background(), envs[q.Spec.Domain], q); err != nil {
				return nil, fmt.Errorf("building the RAG index of %s: %w", q.Spec.Domain, err)
			}
		}
	}
	st.indexS = time.Since(start).Seconds()
	return st, nil
}

// methodModel is the model a Table 1 method calls.
func methodModel(m core.Method) (model llm.Model) {
	withModel(m, func(x llm.Model) llm.Model { model = x; return x })
	return model
}

// withModel returns a copy of a Table 1 method whose model is wrapped.
func withModel(m core.Method, wrap func(llm.Model) llm.Model) core.Method {
	switch t := m.(type) {
	case *core.Text2SQL:
		c := *t
		c.Model = wrap(t.Model)
		return &c
	case *core.RAG:
		c := *t
		c.Model = wrap(t.Model)
		return &c
	case *core.RetrievalLMRank:
		c := *t
		c.Model = wrap(t.Model)
		return &c
	case *core.Text2SQLLM:
		c := *t
		c.Model = wrap(t.Model)
		return &c
	case *core.HandwrittenTAG:
		c := *t
		c.Model = wrap(t.Model)
		return &c
	}
	panic(fmt.Sprintf("tagperf: unknown method %T", m))
}

// answerers returns the six answer functions. Untraced (log == nil), Ask
// goes through tag.System.Ask. Traced, every model is wrapped in a timing
// decorator, and Ask runs the same pipeline System.Ask runs, over the
// system's own retry-wrapped model, so the decorator sees its LM calls.
func (st *tagState) answerers(log *spanLog) [6]answerer {
	var out [6]answerer
	wrap := func(m llm.Model) llm.Model { return m }
	if log != nil {
		wrap = func(m llm.Model) llm.Model { return &timedModel{inner: m, log: log} }
	}
	for i, m := range st.methods {
		m := withModel(m, wrap)
		out[i] = func(ctx context.Context, q *tagbench.Query) (*core.Answer, error) {
			return m.Answer(ctx, st.envs[q.Spec.Domain], q)
		}
	}
	out[askIdx] = func(ctx context.Context, q *tagbench.Query) (*core.Answer, error) {
		var text string
		if log == nil {
			resp, err := st.systems[q.Spec.Domain].Ask(ctx, q.NL)
			if err != nil {
				return nil, err
			}
			text = resp.Answer
		} else {
			p := &core.Pipeline{Model: wrap(st.systems[q.Spec.Domain].Model())}
			res, err := p.Run(ctx, st.envs[q.Spec.Domain], q.NL)
			if err != nil {
				return nil, err
			}
			text = res.Answer
		}
		if q.Spec.Type == nlq.Aggregation {
			return &core.Answer{Text: text}, nil
		}
		return &core.Answer{Values: llm.ParseAnswerList(text), Text: text}, nil
	}
	return out
}

// clock is the simulated clock the method's answer to q is charged to.
func (st *tagState) clock(method int, q *tagbench.Query) *llm.Clock {
	if method == askIdx {
		return llm.AsSimLM(st.systems[q.Spec.Domain].Model()).Clock()
	}
	return llm.AsSimLM(methodModel(st.methods[method])).Clock()
}

// answer runs one answer, returning its wall time and scored outcome.
// The answer call alone is timed and spanned; scoring is not.
func (st *tagState) answer(ans [6]answerer, method, qi int, log *spanLog) (time.Duration, outcome) {
	q := st.queries[qi]
	clk := st.clock(method, q)
	before := clk.Now()
	sp := log.begin("core." + tagMethodKeys[method])
	start := time.Now()
	a, err := ans[method](context.Background(), q)
	d := time.Since(start)
	log.end(sp)
	// The clock is a running float sum, so a delta carries rounding that
	// depends on where the clock stood; nanosecond rounding removes it and
	// makes outcomes independent of the answer order.
	o := outcome{simSec: math.Round((clk.Now()-before)*1e9) / 1e9, failed: err != nil}
	if err == nil {
		o.print = strings.Join(a.Values, "\x1f") + "\x1e" + a.Text
		if q.Spec.Type == nlq.Aggregation {
			o.coverage = tagbench.Coverage(a.Text, st.truth[qi].Facts)
		} else {
			o.correct = tagbench.ExactMatch(a.Values, st.truth[qi].Values)
		}
	} else {
		o.print = "error"
	}
	return d, o
}

// table1 folds one outcome per (query, method) into Table 1 rows.
func (st *tagState) table1(outs [][6]outcome) [6]tableRow {
	var rows [6]tableRow
	for qi, q := range st.queries {
		for m := range rows {
			o := outs[qi][m]
			rows[m].simET += o.simSec
			if o.failed {
				rows[m].errors++
			}
			if q.Spec.Type != nlq.Aggregation {
				rows[m].scored++
				if o.correct {
					rows[m].correct++
				}
			}
		}
	}
	for m := range rows {
		rows[m].simET /= float64(len(st.queries))
	}
	return rows
}

func matchesGolden(got, want tableRow) bool {
	return got.correct == want.correct && got.scored == want.scored && got.errors == want.errors &&
		math.Abs(got.simET-want.simET) < 1e-8
}

// tagOrder is one pass: every (query, method) pair once, in seeded order.
func tagOrder(r *rand.Rand, nq int) [][2]int {
	order := make([][2]int, 0, nq*len(tagMethodKeys))
	for qi := 0; qi < nq; qi++ {
		for m := range tagMethodKeys {
			order = append(order, [2]int{qi, m})
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// referencePass answers every pair once, untimed, in seeded order.
func (st *tagState) referencePass(r *rand.Rand) [][6]outcome {
	ans := st.answerers(nil)
	outs := make([][6]outcome, len(st.queries))
	for _, p := range tagOrder(r, len(st.queries)) {
		_, outs[p[0]][p[1]] = st.answer(ans, p[1], p[0], nil)
	}
	return outs
}

// tagPhase is one closed-loop measurement.
type tagPhase struct {
	lat      latencies
	byMethod [6]latencies
	first    [][6]outcome // the first complete pass
	failed   int
}

// loop answers seeded passes until d has elapsed and at least one full
// pass is done, checking every answer against the reference.
func (st *tagState) loop(r *rand.Rand, d time.Duration, log *spanLog, badMethod [6]bool) *tagPhase {
	ans := st.answerers(log)
	ph := &tagPhase{}
	deadline := time.Now().Add(d)
	for ph.first == nil || time.Now().Before(deadline) {
		cur := make([][6]outcome, len(st.queries))
		order := tagOrder(r, len(st.queries))
		for _, p := range order {
			if ph.first != nil && !time.Now().Before(deadline) {
				break
			}
			qi, m := p[0], p[1]
			log.nextOp()
			dur, o := st.answer(ans, m, qi, log)
			ph.lat.add(dur)
			ph.byMethod[m].add(dur)
			if badMethod[m] || o != st.ref[qi][m] {
				ph.failed++
			}
			cur[qi][m] = o
		}
		if ph.first == nil {
			ph.first = cur
		}
	}
	return ph
}

func runTagQuestions(cfg config) (*report, error) {
	base := heapMB()
	st, setupS, err := setupTimes(setupTag, func(*tagState) {})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.add("setup_s", setupS, "s")
	rep.add("heap_mb", heapMB()-base, "MB")

	r := rand.New(rand.NewSource(cfg.seed))
	st.ref = st.referencePass(r)
	var bad [6]bool
	for m, row := range st.table1(st.ref) {
		if !matchesGolden(row, table1Golden[m]) {
			bad[m] = true
			rep.notes = append(rep.notes, fmt.Sprintf("check %s: Table 1 row %+v, want %+v", tagMethodKeys[m], row, table1Golden[m]))
		}
	}

	untracedD, tracedD := phases(cfg)
	start := time.Now()
	ph := st.loop(r, untracedD, nil, bad)
	elapsed := time.Since(start)
	rep.attempted, rep.failed = len(ph.lat), ph.failed
	rows := st.table1(ph.first)
	var simSum float64
	for _, row := range rows {
		simSum += row.simET
	}
	hw := rows[handwrittenIdx]
	qualities := []metric{
		{"tag_exact_match", float64(hw.correct) / float64(hw.scored), "share"},
		{"tag_sim_et_s", hw.simET, "sim_s"},
		{"sim_et_s", simSum / float64(len(rows)), "sim_s"},
	}
	addEndToEnd(rep, ph.lat, elapsed)
	rep.metrics = append(rep.metrics, qualities...)
	if !cfg.trace {
		return rep, nil
	}

	// Traced half: the same loop with spans and counter deltas.
	lmBefore, dbBefore := st.lmStats(), sumStats(st.dbs)
	log := newSpanLog(time.Now())
	tr := st.loop(r, tracedD, log, bad)
	lmAfter, dbAfter := st.lmStats(), sumStats(st.dbs)
	rep.attempted += len(tr.lat)
	rep.failed += tr.failed
	rep.spans = log
	n := len(tr.lat)
	rep.add("trace_overhead_ms", percentile(tr.lat, 50)-percentile(ph.lat, 50), "ms")
	for m, key := range tagMethodKeys {
		rep.add("core."+key+"_ms", percentile(tr.byMethod[m], 50), "ms")
	}
	var selfs latencies
	var lmBusy, answerTotal time.Duration
	self := log.selfTimes()
	for i, s := range log.spans {
		switch layerOf(s.name) {
		case "core":
			selfs.add(self[i])
			answerTotal += time.Duration(s.end - s.start)
		case "llm":
			if s.parent >= 0 && layerOf(log.spans[s.parent].name) == "core" {
				lmBusy += time.Duration(s.end - s.start)
			}
		}
	}
	rep.add("core.answer_self_ms", percentile(selfs, 50), "ms")
	rep.add("llm.busy_share", float64(lmBusy)/float64(max(answerTotal, 1)), "share")
	rep.add("llm.calls_per_answer", perOp(uint64(lmAfter.Calls+lmAfter.BatchCalls-lmBefore.Calls-lmBefore.BatchCalls), n), "count")
	rep.add("llm.batch_items_per_answer", perOp(uint64(lmAfter.BatchedItems-lmBefore.BatchedItems), n), "count")
	rep.add("llm.prompt_tokens_per_answer", perOp(uint64(lmAfter.PromptTokens-lmBefore.PromptTokens), n), "count")
	rep.add("llm.retries", float64(lmAfter.Retries-lmBefore.Retries), "count")
	rep.add("sqldb.queries_per_answer", perOp(dbAfter.Queries-dbBefore.Queries, n), "count")
	rep.add("sqldb.rows_scanned_per_answer", perOp(dbAfter.RowsScanned-dbBefore.RowsScanned, n), "count")
	hits, misses := dbAfter.PlanCacheHits-dbBefore.PlanCacheHits, dbAfter.PlanCacheMisses-dbBefore.PlanCacheMisses
	rep.add("sqldb.plan_cache_hit_ratio", perOp(hits, int(hits+misses)), "share")
	rep.add("embed.index_build_s", st.indexS, "s")
	rep.notes = append(rep.notes, log.selfNotes()...)
	return rep, nil
}

// lmStats sums the usage of every model the six methods call, with the
// retry counters of the Ask systems.
func (st *tagState) lmStats() llm.Stats {
	var s llm.Stats
	addStats := func(x llm.Stats) {
		s.Calls += x.Calls
		s.BatchCalls += x.BatchCalls
		s.BatchedItems += x.BatchedItems
		s.PromptTokens += x.PromptTokens
		s.OutputTokens += x.OutputTokens
		s.Retries += x.Retries
		s.GiveUps += x.GiveUps
	}
	for _, m := range st.methods {
		addStats(llm.AsSimLM(methodModel(m)).Stats())
	}
	for _, sys := range st.systems {
		if sp, ok := sys.Model().(interface{ Stats() llm.Stats }); ok {
			addStats(sp.Stats())
		}
	}
	return s
}

// sumStats adds the engine counters of several databases.
func sumStats(dbs []*sqldb.Database) sqldb.Stats {
	var s sqldb.Stats
	for _, db := range dbs {
		x := db.Stats()
		s.Queries += x.Queries
		s.RowsScanned += x.RowsScanned
		s.PlanCacheHits += x.PlanCacheHits
		s.PlanCacheMisses += x.PlanCacheMisses
	}
	return s
}

// timedModel is an llm.Model decorator that records a span around every
// call. Unwrap lets llm.AsSimLM see through it.
type timedModel struct {
	inner llm.Model
	log   *spanLog
}

func (m *timedModel) Unwrap() llm.Model  { return m.inner }
func (m *timedModel) Name() string       { return m.inner.Name() }
func (m *timedModel) ContextWindow() int { return m.inner.ContextWindow() }

func (m *timedModel) Complete(ctx context.Context, prompt string) (string, error) {
	sp := m.log.begin("llm.complete")
	defer m.log.end(sp)
	return m.inner.Complete(ctx, prompt)
}

func (m *timedModel) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	sp := m.log.begin("llm.batch")
	defer m.log.end(sp)
	return m.inner.CompleteBatch(ctx, prompts)
}
