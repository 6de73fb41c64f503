package sqldb

import (
	"context"
	"strings"
	"testing"
)

func explainJoined(t *testing.T, lines []string) string {
	t.Helper()
	return strings.Join(lines, "\n")
}

func TestExplainSeqScan(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain("SELECT title FROM movies WHERE genre = 'Romance'")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "seq scan movies") {
		t.Errorf("expected seq scan:\n%s", out)
	}
	if !strings.Contains(out, "filter") {
		t.Errorf("expected filter stage:\n%s", out)
	}
}

func TestExplainIndexScan(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain("SELECT title FROM movies WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "index scan movies") {
		t.Errorf("primary-key equality should use the index:\n%s", out)
	}
	if strings.Contains(out, "filter") {
		t.Errorf("index-served predicate should be removed from the filter:\n%s", out)
	}
}

// TestExplainParamsBindIntoIndexAccess: a ? parameter serves the same
// index access paths as a literal — `id = ?` is an index lookup that reads
// one row, `day BETWEEN ? AND ?` an index range scan — and a NULL
// parameter is an empty lookup. An unbound parameter leaves the
// predicate to the filter, which reports the arity error.
func TestExplainParamsBindIntoIndexAccess(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE p (id INTEGER PRIMARY KEY, day INTEGER, v TEXT)")
	db.MustExec("CREATE INDEX p_day ON p (day)")
	for i := 0; i < 500; i++ {
		db.MustExec("INSERT INTO p VALUES (?, ?, ?)", i, i%50, "v")
	}
	plan := func(sql string, params ...any) string {
		t.Helper()
		lines, err := db.Explain(sql, params...)
		if err != nil {
			t.Fatal(err)
		}
		return explainJoined(t, lines)
	}
	if out := plan("SELECT v FROM p WHERE id = ?", 42); !strings.Contains(out, "index scan p (as p): 1 candidate row(s)") ||
		strings.Contains(out, "filter") {
		t.Fatalf("id = ? did not plan an index lookup:\n%s", out)
	}
	if out := plan("SELECT COUNT(*) FROM p WHERE day BETWEEN ? AND ?", 3, 5); !strings.Contains(out, "index range scan p (as p)") {
		t.Fatalf("day BETWEEN ? AND ? did not plan an index range scan:\n%s", out)
	}
	if out := plan("SELECT v FROM p WHERE id = ?", nil); !strings.Contains(out, "index scan p (as p): 0 candidate row(s)") {
		t.Fatalf("id = NULL parameter should be an empty lookup:\n%s", out)
	}

	rows, err := db.QueryRows(context.Background(), "SELECT v FROM p WHERE id = ?", 42)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	st := rows.Stats()
	rows.Close()
	if n != 1 || st.RowsScanned != 1 || st.FullScans != 0 {
		t.Fatalf("id = ? returned %d rows, scanned %d, full scans %d; want 1, 1, 0", n, st.RowsScanned, st.FullScans)
	}
	if _, err := db.Query("SELECT v FROM p WHERE id = ?"); CodeOf(err) != ErrParams {
		t.Fatalf("unbound parameter: err = %v, want ErrParams", err)
	}
}

func TestExplainHashJoin(t *testing.T) {
	db := testDB(t)
	// reviews.movie_id has no index and there is no ORDER BY (so the
	// planner cannot flip sides onto movies' primary key): plain hash join
	// building the right input.
	lines, err := db.Explain("SELECT m.title FROM movies m JOIN reviews r ON m.id = r.movie_id")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "hash join") {
		t.Errorf("equi-join should hash:\n%s", out)
	}
	if !strings.Contains(out, "build right") {
		t.Errorf("default hash join should report building the right side:\n%s", out)
	}
}

func TestExplainHashJoinBuildSide(t *testing.T) {
	// With an ORDER BY imposing the final order, the planner builds the
	// smaller input. small (3 rows) JOIN big (60 rows) on un-indexed keys
	// should build the left side.
	db := NewDatabase()
	db.MustExec("CREATE TABLE small (k INTEGER)")
	db.MustExec("CREATE TABLE big (k INTEGER, v INTEGER)")
	for i := 0; i < 3; i++ {
		db.MustExec("INSERT INTO small VALUES (?)", i)
	}
	for i := 0; i < 60; i++ {
		db.MustExec("INSERT INTO big VALUES (?, ?)", i%3, i)
	}
	lines, err := db.Explain("SELECT big.v FROM small JOIN big ON small.k = big.k ORDER BY big.v")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "hash join") || !strings.Contains(out, "build left") {
		t.Errorf("small left input should become the build side:\n%s", out)
	}
	// Without ORDER BY, flipping would change output order: keep right.
	lines, err = db.Explain("SELECT big.v FROM small JOIN big ON small.k = big.k")
	if err != nil {
		t.Fatal(err)
	}
	if out := explainJoined(t, lines); !strings.Contains(out, "build right") {
		t.Errorf("order-sensitive plan must build right:\n%s", out)
	}
}

func TestExplainIndexJoin(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE INDEX idx_reviews_movie ON reviews (movie_id)")
	// The right side's join column is indexed: no build phase at all.
	lines, err := db.Explain("SELECT m.title FROM movies m JOIN reviews r ON m.id = r.movie_id")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "index nested loop join") {
		t.Errorf("indexed right join key should use index nested loop:\n%s", out)
	}
	if strings.Contains(out, "hash join") {
		t.Errorf("index join should replace hash join:\n%s", out)
	}
	// Flipped: only the LEFT side's key (movies.id, the primary key) is
	// indexed. With an ORDER BY the planner probes the right input.
	lines, err = db.Explain("SELECT r.stars FROM movies m JOIN reviews r ON m.id = r.stars ORDER BY r.stars")
	if err != nil {
		t.Fatal(err)
	}
	out = explainJoined(t, lines)
	if !strings.Contains(out, "index nested loop join") || !strings.Contains(out, "probing right input") {
		t.Errorf("indexed left key under ORDER BY should flip the probe side:\n%s", out)
	}
}

func TestExplainNestedLoopAndCross(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain("SELECT COUNT(*) FROM movies a JOIN movies b ON a.revenue > b.revenue")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "nested loop join") {
		t.Errorf("non-equi join should nest:\n%s", out)
	}
	if !strings.Contains(out, "aggregate") {
		t.Errorf("COUNT should aggregate:\n%s", out)
	}
	lines, err = db.Explain("SELECT * FROM movies, reviews")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explainJoined(t, lines), "cross join") {
		t.Errorf("comma join should be cross:\n%s", explainJoined(t, lines))
	}
}

func TestExplainStages(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain(`SELECT DISTINCT genre FROM movies
		GROUP BY genre ORDER BY genre LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	for _, stage := range []string{"limit/offset", "sort by", "distinct", "hash aggregate"} {
		if !strings.Contains(out, stage) {
			t.Errorf("missing stage %q:\n%s", stage, out)
		}
	}
	// Stage order: limit outermost, then sort, distinct, aggregate.
	li := strings.Index(out, "limit/offset")
	si := strings.Index(out, "sort by")
	ai := strings.Index(out, "hash aggregate")
	if !(li < si && si < ai) {
		t.Errorf("stage order wrong:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Explain("INSERT INTO movies VALUES (99, 'x', 'y', 1, 2000)"); err == nil {
		t.Error("EXPLAIN of non-SELECT must fail")
	}
	if _, err := db.Explain("SELECT nope FROM nowhere"); err == nil {
		t.Error("EXPLAIN of invalid query must fail")
	}
}
