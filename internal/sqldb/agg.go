package sqldb

import (
	"strings"
)

// isAggregateName reports whether the (upper-cased) function name denotes an
// aggregate.
func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT", "TOTAL":
		return true
	default:
		return false
	}
}

// aggState accumulates one aggregate over the rows of a group.
type aggState interface {
	add(v Value)
	result() Value
}

// mergeableAggState is an aggState whose partial results can be combined
// across parallel workers without observable divergence from the serial
// fold (vecops.go). GROUP_CONCAT (order-sensitive) and DISTINCT
// wrappers (unmergeable dedup sets) deliberately do not implement it;
// the planner checks eligibility before choosing parallel aggregation.
type mergeableAggState interface {
	aggState
	// merge folds another partial state of the same aggregate into this
	// one. The argument is always the same concrete type as the receiver.
	merge(other aggState)
}

// morselAdder is implemented by aggregate states whose float accumulation
// is order-sensitive (SUM, AVG, TOTAL). Parallel workers feed values
// through addMorsel with the morsel ordinal so the state can keep one
// partial float sum per morsel; result() folds the parts in ascending
// morsel order. That makes the engine's float summation order a defined
// property of the data and the morsel size — left-to-right within each
// morsel, then morsel by morsel — independent of worker count and
// scheduling. Serial execution is the degenerate single-part case
// (every add lands on morsel 0), so serial results are unchanged.
type morselAdder interface {
	addMorsel(v Value, morsel int)
}

// sumPart is one morsel's running float sum. Part lists are kept sorted
// ascending by morsel: each worker claims morsels in increasing order,
// so its appends arrive sorted, and mergeParts preserves the invariant.
type sumPart struct {
	morsel int
	f      float64
}

// mergeParts merges two morsel-sorted part lists, summing parts that
// share a morsel (defensive: one morsel is claimed by exactly one
// worker, so collisions should not occur across worker states).
func mergeParts(a, b []sumPart) []sumPart {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]sumPart, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].morsel < b[j].morsel:
			out = append(out, a[i])
			i++
		case b[j].morsel < a[i].morsel:
			out = append(out, b[j])
			j++
		default:
			out = append(out, sumPart{morsel: a[i].morsel, f: a[i].f + b[j].f})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// foldParts folds morsel partial sums in ascending morsel order — the
// documented float summation order.
func foldParts(parts []sumPart) float64 {
	var f float64
	for _, p := range parts {
		f += p.f
	}
	return f
}

// partSum is a morsel-keyed float accumulator: one running sum per morsel,
// folded in ascending morsel order by foldParts.
type partSum struct {
	parts []sumPart
}

func (p *partSum) add(f float64, morsel int) {
	if n := len(p.parts); n > 0 && p.parts[n-1].morsel == morsel {
		p.parts[n-1].f += f
		return
	}
	p.parts = append(p.parts, sumPart{morsel: morsel, f: f})
}

// newAggState builds the accumulator for the named aggregate.
func newAggState(fc *FuncCall) (aggState, error) {
	var base aggState
	switch fc.Name {
	case "COUNT":
		base = &countState{star: fc.Star}
	case "SUM":
		base = &sumState{}
	case "TOTAL":
		base = &sumState{total: true}
	case "AVG":
		base = &avgState{}
	case "MIN":
		base = &minMaxState{min: true}
	case "MAX":
		base = &minMaxState{}
	case "GROUP_CONCAT":
		sep := ","
		if len(fc.Args) == 2 {
			if lit, ok := fc.Args[1].(*Literal); ok {
				sep = lit.Val.AsText()
			}
		}
		base = &concatState{sep: sep}
	default:
		return nil, errf(ErrNoFunction, "sql: unknown aggregate %s()", fc.Name)
	}
	if fc.Distinct {
		return &distinctState{inner: base, seen: make(map[string]bool)}, nil
	}
	return base, nil
}

// countState implements COUNT(*) and COUNT(expr).
type countState struct {
	star bool
	n    int64
}

func (s *countState) add(v Value) {
	if s.star || !v.IsNull() {
		s.n++
	}
}
func (s *countState) result() Value { return Int(s.n) }

func (s *countState) merge(other aggState) { s.n += other.(*countState).n }

// sumState implements SUM (NULL over empty input) and TOTAL (0.0 over empty
// input, always REAL), matching SQLite. The float accumulator is a
// morsel-keyed part list (see morselAdder); integer sums merge exactly
// and need no ordering.
type sumState struct {
	total   bool
	sawAny  bool
	allInts bool
	i       int64
	partSum
}

func (s *sumState) add(v Value) { s.addMorsel(v, 0) }

func (s *sumState) addMorsel(v Value, morsel int) {
	if v.IsNull() {
		return
	}
	if !s.sawAny {
		s.sawAny = true
		s.allInts = true
	}
	if v.Kind() == KindInt {
		s.i += v.AsInt()
	} else {
		s.allInts = false
	}
	s.partSum.add(v.AsFloat(), morsel)
}

func (s *sumState) merge(other aggState) {
	o := other.(*sumState)
	if !o.sawAny {
		return
	}
	if !s.sawAny {
		s.sawAny, s.allInts = true, o.allInts
		s.i, s.parts = o.i, o.parts
		return
	}
	s.allInts = s.allInts && o.allInts
	s.i += o.i
	s.parts = mergeParts(s.parts, o.parts)
}

func (s *sumState) result() Value {
	if !s.sawAny {
		if s.total {
			return Float(0)
		}
		return Null
	}
	if s.total {
		return Float(foldParts(s.parts))
	}
	if s.allInts {
		return Int(s.i)
	}
	return Float(foldParts(s.parts))
}

// avgState implements AVG (REAL; NULL over empty input). Like sumState
// it keeps morsel-keyed float parts so the summation order is defined
// under parallel execution.
type avgState struct {
	n int64
	partSum
}

func (s *avgState) add(v Value) { s.addMorsel(v, 0) }

func (s *avgState) addMorsel(v Value, morsel int) {
	if v.IsNull() {
		return
	}
	s.n++
	s.partSum.add(v.AsFloat(), morsel)
}

func (s *avgState) merge(other aggState) {
	o := other.(*avgState)
	s.n += o.n
	s.parts = mergeParts(s.parts, o.parts)
}

func (s *avgState) result() Value {
	if s.n == 0 {
		return Null
	}
	return Float(foldParts(s.parts) / float64(s.n))
}

// minMaxState implements MIN/MAX with NULLs ignored.
type minMaxState struct {
	min    bool
	sawAny bool
	best   Value
}

func (s *minMaxState) add(v Value) {
	if v.IsNull() {
		return
	}
	if !s.sawAny {
		s.sawAny = true
		s.best = v
		return
	}
	c := v.Compare(s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
	}
}

func (s *minMaxState) merge(other aggState) {
	o := other.(*minMaxState)
	if !o.sawAny {
		return
	}
	if !s.sawAny {
		s.sawAny, s.best = true, o.best
		return
	}
	c := o.best.Compare(s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = o.best
	}
}

func (s *minMaxState) result() Value {
	if !s.sawAny {
		return Null
	}
	return s.best
}

// concatState implements GROUP_CONCAT.
type concatState struct {
	sep    string
	sawAny bool
	b      strings.Builder
}

func (s *concatState) add(v Value) {
	if v.IsNull() {
		return
	}
	if s.sawAny {
		s.b.WriteString(s.sep)
	}
	s.sawAny = true
	s.b.WriteString(v.AsText())
}

func (s *concatState) result() Value {
	if !s.sawAny {
		return Null
	}
	return Text(s.b.String())
}

// distinctState deduplicates inputs before delegating to the wrapped state.
// Keys encode into a reused scratch buffer, so only the first sighting of
// each distinct value allocates.
type distinctState struct {
	inner aggState
	seen  map[string]bool
	buf   []byte
}

func (s *distinctState) add(v Value) {
	if v.IsNull() {
		s.inner.add(v) // inner decides whether NULL counts
		return
	}
	s.buf = appendValueKey(s.buf[:0], v)
	if s.seen[string(s.buf)] {
		return
	}
	s.seen[string(s.buf)] = true
	s.inner.add(v)
}

func (s *distinctState) result() Value { return s.inner.result() }
