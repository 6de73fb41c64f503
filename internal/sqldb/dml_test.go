package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Tests for DML snapshot semantics (the Halloween problem): an UPDATE or
// DELETE whose WHERE/SET contains a subquery over the mutating table must
// evaluate every row against the pre-statement state — not against stale
// index keys, a half-mutated heap, or an ordered view built mid-loop.
// The reference executor for these tests is SELECT over a pristine clone:
// evaluating the same WHERE/SET expressions with a read-only statement on
// an untouched copy is exactly snapshot semantics.

// dmlTestDBs builds the same table into an indexed and an unindexed
// database so both the stale-index and half-mutated-heap variants of the
// hazard are exercised.
func dmlTestDBs() (indexed, plain *Database) {
	indexed = NewDatabase()
	plain = NewDatabase()
	indexed.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	indexed.MustExec("CREATE INDEX idx_t_k ON t (k)")
	plain.MustExec("CREATE TABLE t (id INTEGER, k INTEGER)")
	return indexed, plain
}

// TestUpdateSelfSubquerySeesSnapshot: the WHERE subquery aggregates the
// very column the statement mutates. Under snapshot semantics the
// predicate is the same for every row (SUM over the pre-statement state);
// a one-pass executor lets earlier updates leak into later rows'
// evaluations and stops updating after the first row.
func TestUpdateSelfSubquerySeesSnapshot(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (1, 2), (2, 2), (3, 2)")
		n, err := db.Exec("UPDATE t SET k = k + 10 WHERE (SELECT SUM(k) FROM t WHERE k = 2) = 6")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 3 {
			t.Errorf("%s: updated %d rows, want 3 (predicate is row-independent under snapshot semantics)", name, n)
		}
		got := queryStrings(t, db, "SELECT id, k FROM t ORDER BY id")
		want := [][]string{{"1", "12"}, {"2", "12"}, {"3", "12"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows = %v, want %v", name, got, want)
		}
	}
}

// TestUpdateWithInSelfSubquery is the issue's regression shape:
// UPDATE t SET ... WHERE id IN (SELECT ... FROM t ...). Row id=12 is only
// a member of the IN set if some row's k equals 12 — which only happens
// AFTER row id=2 is updated. Snapshot semantics must not see it.
func TestUpdateWithInSelfSubquery(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (2, 2), (12, 2)")
		n, err := db.Exec("UPDATE t SET k = k + 10 WHERE id IN (SELECT k FROM t WHERE k = 2)")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 1 {
			t.Errorf("%s: updated %d rows, want 1", name, n)
		}
		got := queryStrings(t, db, "SELECT id, k FROM t ORDER BY id")
		want := [][]string{{"2", "12"}, {"12", "2"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows = %v, want %v (id=12 must not see the in-flight k=12)", name, got, want)
		}
	}
}

// TestDeleteSelfSubquerySeesSnapshot: deleting rows above the average of
// the same table. The average must be the pre-statement one for every
// row; a compact-in-place executor re-averages a half-compacted heap and
// deletes rows the pristine average would keep.
func TestDeleteSelfSubquerySeesSnapshot(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (1, 9), (2, 1), (3, 2)")
		n, err := db.Exec("DELETE FROM t WHERE k > (SELECT AVG(k) FROM t)") // avg = 4
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 1 {
			t.Errorf("%s: deleted %d rows, want 1", name, n)
		}
		got := queryStrings(t, db, "SELECT id, k FROM t ORDER BY id")
		want := [][]string{{"2", "1"}, {"3", "2"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows = %v, want %v", name, got, want)
		}
	}
}

// cloneTableT copies table t of src into a fresh unindexed database — the
// pristine snapshot the reference executor evaluates against.
func cloneTableT(t *testing.T, src *Database) *Database {
	t.Helper()
	ref := NewDatabase()
	ref.MustExec("CREATE TABLE t (id INTEGER, k INTEGER)")
	st, err := src.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	arr, n := st.loadSlots()
	for id := 0; id < n; id++ {
		r := latestRow(arr[id].head.Load())
		if r == nil {
			continue
		}
		ref.MustExec("INSERT INTO t VALUES (?, ?)", r[0], r[1])
	}
	return ref
}

// whereClause renders an optional WHERE ("" means none).
func whereClause(where string) string {
	if where == "" {
		return ""
	}
	return " WHERE " + where
}

// refUpdate computes the snapshot-semantics outcome of
// `UPDATE t SET <col> = <setExpr> WHERE <where>` (col 0 is id, 1 is k) by
// running a SELECT over the pristine clone, and returns the expected
// (id, k) rows in heap order.
func refUpdate(t *testing.T, ref *Database, col int, setExpr, where string, params ...any) [][]string {
	t.Helper()
	upd, err := ref.Query("SELECT id, "+setExpr+" FROM t"+whereClause(where), params...)
	if err != nil {
		t.Fatalf("reference SELECT for UPDATE: %v", err)
	}
	newV := make(map[int64]Value)
	for _, r := range upd.Rows {
		newV[r[0].AsInt()] = r[1]
	}
	all, err := ref.Query("SELECT id, k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Row, len(all.Rows))
	for i, r := range all.Rows {
		row := r.Clone()
		if v, ok := newV[r[0].AsInt()]; ok {
			row[col] = coerce(v, KindInt)
		}
		out[i] = row
	}
	return rowsToStrings(out)
}

// refDelete computes the snapshot-semantics outcome of
// `DELETE FROM t WHERE <where>` the same way.
func refDelete(t *testing.T, ref *Database, where string, params ...any) [][]string {
	t.Helper()
	del, err := ref.Query("SELECT id FROM t WHERE "+where, params...)
	if err != nil {
		t.Fatalf("reference SELECT for DELETE: %v", err)
	}
	gone := make(map[int64]bool)
	for _, r := range del.Rows {
		gone[r[0].AsInt()] = true
	}
	all, err := ref.Query("SELECT id, k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var out []Row
	for _, r := range all.Rows {
		if !gone[r[0].AsInt()] {
			out = append(out, r)
		}
	}
	return rowsToStrings(out)
}

// TestDMLWithSubqueriesMatchesSnapshotReference is the interleaved
// property test: random inserts mix with self-referential UPDATEs and
// DELETEs whose subqueries take every interesting access path over the
// mutating table — equality-index probes, correlated probes
// (corrProbeScanOp), aggregates, and ordered/range subqueries that
// lazily build the ordered index view mid-statement. Parameterised WHERE
// shapes without a subquery take the planner's equality and range access
// paths on the indexed engine (a NULL parameter and an unindexable
// residual included), and a primary-key rotation exercises the
// final-state UNIQUE check. After every DML the indexed engine, the plain
// engine, and the SELECT-over-pristine-clone reference must agree
// exactly.
func TestDMLWithSubqueriesMatchesSnapshotReference(t *testing.T) {
	r := rand.New(rand.NewSource(117))
	indexed, plain := dmlTestDBs()
	nextID := 0

	updates := []func(*rand.Rand) (where, set string){
		func(r *rand.Rand) (string, string) {
			return fmt.Sprintf("k < (SELECT MAX(k) FROM t WHERE k < %d)", 10+r.Intn(40)), "k + 1"
		},
		func(r *rand.Rand) (string, string) {
			return fmt.Sprintf("id IN (SELECT k FROM t WHERE k = %d)", r.Intn(20)), "k + 10"
		},
		func(r *rand.Rand) (string, string) {
			// Correlated equality over the mutating table: corrProbeScanOp.
			return "EXISTS (SELECT 1 FROM t t2 WHERE t2.k = t.id)", "k - 1"
		},
		func(r *rand.Rand) (string, string) {
			// Ordered subquery: lazily builds the ordered view mid-DML.
			return fmt.Sprintf(
				"k >= (SELECT t2.k FROM t t2 WHERE t2.k IS NOT NULL ORDER BY t2.k DESC LIMIT 1) - %d",
				r.Intn(6)), "k + 2"
		},
		func(r *rand.Rand) (string, string) {
			// Correlated scalar subquery in SET.
			return fmt.Sprintf("id %% 5 = %d", r.Intn(5)),
				"(SELECT MIN(t2.k) FROM t t2 WHERE t2.k > t.k)"
		},
		func(r *rand.Rand) (string, string) {
			// Range subquery over the indexed column.
			return fmt.Sprintf("k IN (SELECT t2.k FROM t t2 WHERE t2.k BETWEEN %d AND %d)",
				r.Intn(15), 15+r.Intn(15)), "k + 3"
		},
	}
	// WHERE shapes without a subquery, with ? parameters.
	plainWheres := []func(*rand.Rand) (string, []any){
		// Recent ids are the likeliest to be live.
		func(r *rand.Rand) (string, []any) { return "id = ?", []any{nextID - 1 - r.Intn(8)} },
		func(r *rand.Rand) (string, []any) {
			lo := r.Intn(30)
			return "k BETWEEN ? AND ?", []any{lo, lo + r.Intn(10)}
		},
		func(r *rand.Rand) (string, []any) {
			lo := r.Intn(30)
			return "k > ? AND k <= ?", []any{lo, lo + r.Intn(10)}
		},
		func(r *rand.Rand) (string, []any) { return "k < ?", []any{nil} },
		func(r *rand.Rand) (string, []any) { return "id = ? AND k % 2 = 0", []any{nextID - 1 - r.Intn(8)} },
	}
	deletes := []func(*rand.Rand) string{
		func(r *rand.Rand) string {
			return "k > (SELECT AVG(k) FROM t)"
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("id IN (SELECT t2.id FROM t t2 WHERE t2.k = %d) AND k < (SELECT MAX(k) FROM t)", r.Intn(20))
		},
		func(r *rand.Rand) string {
			return "EXISTS (SELECT 1 FROM t t2 WHERE t2.k = t.id AND t2.id != t.id)"
		},
	}

	compare := func(step int, sql string, want [][]string) {
		t.Helper()
		for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
			got := queryStrings(t, db, "SELECT id, k FROM t")
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s engine disagrees with snapshot reference after %q:\ngot  %v\nwant %v",
					step, name, sql, got, want)
			}
		}
	}

	// exec runs one DML on both engines and checks it against want.
	exec := func(step int, sql string, want [][]string, params ...any) {
		t.Helper()
		ni, erri := indexed.Exec(sql, params...)
		np, errp := plain.Exec(sql, params...)
		if erri != nil || errp != nil {
			t.Fatalf("step %d: %q %v: indexed err %v, plain err %v", step, sql, params, erri, errp)
		}
		if ni != np {
			t.Fatalf("step %d: %q %v affected %d (indexed) vs %d (plain)", step, sql, params, ni, np)
		}
		compare(step, sql, want)
	}

	for step := 0; step < 400; step++ {
		switch op := r.Intn(14); {
		case op < 5 || nextID == 0: // insert (NULL k sometimes)
			var k any = r.Intn(40)
			if r.Intn(7) == 0 {
				k = nil
			}
			for _, db := range []*Database{indexed, plain} {
				db.MustExec("INSERT INTO t VALUES (?, ?)", nextID, k)
			}
			nextID++
		case op < 8: // self-referential UPDATE
			where, set := updates[r.Intn(len(updates))](r)
			want := refUpdate(t, cloneTableT(t, indexed), 1, set, where)
			exec(step, fmt.Sprintf("UPDATE t SET k = %s WHERE %s", set, where), want)
		case op < 10: // self-referential DELETE
			where := deletes[r.Intn(len(deletes))](r)
			want := refDelete(t, cloneTableT(t, indexed), where)
			exec(step, "DELETE FROM t WHERE "+where, want)
		case op < 11: // parameterised UPDATE without a subquery
			where, params := plainWheres[r.Intn(len(plainWheres))](r)
			want := refUpdate(t, cloneTableT(t, indexed), 1, "k + 5", where, params...)
			exec(step, "UPDATE t SET k = k + 5 WHERE "+where, want, params...)
		case op < 13: // parameterised DELETE without a subquery
			where, params := plainWheres[r.Intn(len(plainWheres))](r)
			want := refDelete(t, cloneTableT(t, indexed), where, params...)
			exec(step, "DELETE FROM t WHERE "+where, want, params...)
		default: // primary-key rotation: every key moves onto its successor's
			want := refUpdate(t, cloneTableT(t, indexed), 0, "id + 1", "")
			exec(step, "UPDATE t SET id = id + 1", want)
			nextID++
		}
	}
}

// TestDeleteCancellationMidLoopInvariant: a DELETE cancelled part-way
// through its victim scan fails as a whole — every row stays, Exec
// reports 0 rows, and index lookups agree with the heap.
func TestDeleteCancellationMidLoopInvariant(t *testing.T) {
	db := NewDatabase()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total, cancelAt = 1000, 300
	db.Funcs().Register("CANCEL_AT", func(args []Value) (Value, error) {
		v := args[0].AsInt()
		if v == cancelAt {
			cancel()
		}
		return Bool(v%3 == 0), nil
	})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	rows := make([][]any, total)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}

	n, err := db.ExecContext(ctx, "DELETE FROM t WHERE CANCEL_AT(v)")
	if CodeOf(err) != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n != 0 {
		t.Errorf("cancelled DELETE reported %d rows, want 0", n)
	}

	res, err := db.Query("SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != total {
		t.Fatalf("%d rows after the cancelled DELETE, want all %d", len(res.Rows), total)
	}
	for i, r := range res.Rows {
		if int(r[0].AsInt()) != i {
			t.Fatalf("row %d has id %d after the cancelled DELETE", i, r[0].AsInt())
		}
	}
	// Point lookups agree with the heap.
	for id := 0; id < total; id++ {
		res, err := db.Query("SELECT v FROM t WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("index lookup id=%d found %d rows, want 1", id, len(res.Rows))
		}
	}
}

// TestDMLSnapshotCancellationAtomic: an UPDATE whose WHERE holds a
// subquery is atomic under cancellation — nothing is applied if phase one
// is interrupted.
func TestDMLSnapshotCancellationAtomic(t *testing.T) {
	db := NewDatabase()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db.Funcs().Register("CANCEL_AT2", func(args []Value) (Value, error) {
		if args[0].AsInt() == 100 {
			cancel()
		}
		return Bool(true), nil
	})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	before := queryStrings(t, db, "SELECT id, v FROM t")
	n, err := db.ExecContext(ctx,
		"UPDATE t SET v = v + 1000 WHERE CANCEL_AT2(v) AND id >= (SELECT MIN(id) FROM t)")
	if CodeOf(err) != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n != 0 {
		t.Errorf("snapshot UPDATE reported %d affected rows after cancellation, want 0", n)
	}
	after := queryStrings(t, db, "SELECT id, v FROM t")
	if !reflect.DeepEqual(before, after) {
		t.Errorf("snapshot UPDATE applied partial changes despite cancellation")
	}
}

// TestUpdateEnforcesUnique: moving a row onto an occupied UNIQUE key
// must fail with ErrConstraint, leaving the table untouched, whatever
// access path picked the victims — a full scan, an equality index, a
// subquery — exactly as the equivalent INSERT would. UNIQUE is checked on
// the statement's final state, so key rotations succeed with or without
// a subquery.
func TestUpdateEnforcesUnique(t *testing.T) {
	build := func() *Database {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
		return db
	}
	check := func(db *Database, sql string, params ...any) {
		t.Helper()
		if _, err := db.Exec(sql, params...); CodeOf(err) != ErrConstraint {
			t.Errorf("%q: err = %v, want ErrConstraint", sql, err)
		}
		got := queryStrings(t, db, "SELECT id FROM t ORDER BY id")
		if want := [][]string{{"1"}, {"2"}, {"3"}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%q: ids after failed update = %v, want %v", sql, got, want)
		}
		for _, id := range []int{1, 2, 3} {
			res, err := db.Query("SELECT v FROM t WHERE id = ?", id)
			if err != nil || len(res.Rows) != 1 {
				t.Errorf("%q: index lookup id=%d found %d rows (err %v), want 1", sql, id, len(res.Rows), err)
			}
		}
	}
	check(build(), "UPDATE t SET id = 1 WHERE v > 15")                       // full scan
	check(build(), "UPDATE t SET id = 1 WHERE id = ?", 2)                    // equality index
	check(build(), "UPDATE t SET id = (SELECT MIN(id) FROM t) WHERE v = 20") // subquery
	check(build(), "UPDATE t SET id = id + 1 WHERE v <= 20")                 // 2 -> 3 lands on the unmoved 3
	check(build(), "UPDATE t SET id = CASE WHEN id = 2 THEN 1 ELSE id END")  // 1 stays, 2 joins it
	// Distinct new keys are fine, and so is a rotation (each key vacated
	// before re-occupied in the final state).
	db := build()
	db.MustExec("UPDATE t SET id = id + 100 WHERE v >= 20")
	got := queryStrings(t, db, "SELECT id FROM t ORDER BY id")
	if want := [][]string{{"1"}, {"102"}, {"103"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("disjoint unique update = %v, want %v", got, want)
	}
	db = build()
	db.MustExec("UPDATE t SET id = 4 - id WHERE id <= 3 AND v >= (SELECT MIN(v) FROM t)")
	got = queryStrings(t, db, "SELECT id, v FROM t ORDER BY id")
	if want := [][]string{{"1", "30"}, {"2", "20"}, {"3", "10"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unique key rotation with a subquery = %v, want %v", got, want)
	}
	db = build()
	db.MustExec("UPDATE t SET id = 4 - id")
	got = queryStrings(t, db, "SELECT id, v FROM t ORDER BY id")
	if want := [][]string{{"1", "30"}, {"2", "20"}, {"3", "10"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unique key rotation = %v, want %v", got, want)
	}
	db = build()
	db.MustExec("UPDATE t SET id = id + 1")
	got = queryStrings(t, db, "SELECT id, v FROM t ORDER BY id")
	if want := [][]string{{"2", "10"}, {"3", "20"}, {"4", "30"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unique key shift = %v, want %v", got, want)
	}
	// A row moving to NULL vacates its key for another row in the same
	// statement.
	db = NewDatabase()
	db.MustExec("CREATE TABLE u (id INTEGER, code INTEGER UNIQUE)")
	db.MustExec("INSERT INTO u VALUES (1, 5), (2, 7)")
	db.MustExec("UPDATE u SET code = CASE WHEN code = 5 THEN NULL ELSE 5 END")
	got = queryStrings(t, db, "SELECT id, code FROM u ORDER BY id")
	if want := [][]string{{"1", "NULL"}, {"2", "5"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("key handed over through NULL = %v, want %v", got, want)
	}
}

// TestFailedStatementLeavesNoTrace: every DML statement validates before
// it applies, so a statement that fails — a constraint violation, a UDF
// error part-way through, a cancellation mid-scan — changes nothing and
// reports 0 rows. Inside a transaction the earlier statement survives and
// commits; the failed one leaves no trace in the committed state either.
func TestFailedStatementLeavesNoTrace(t *testing.T) {
	type fixture struct {
		db     *Database
		ctx    context.Context
		cancel context.CancelFunc
	}
	build := func() *fixture {
		f := &fixture{db: NewDatabase()}
		f.ctx, f.cancel = context.WithCancel(context.Background())
		calls := 0
		f.db.Funcs().Register("BOOM_AFTER_5", func(args []Value) (Value, error) {
			if calls++; calls > 5 {
				return Null, errf(ErrMisuse, "boom")
			}
			return args[0], nil
		})
		f.db.Funcs().Register("CANCEL_AT_100", func(args []Value) (Value, error) {
			if args[0].AsInt() == 100 {
				f.cancel()
			}
			return Bool(true), nil
		})
		f.db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER NOT NULL, s TEXT)")
		f.db.MustExec("CREATE INDEX idx_t_k ON t (k)")
		f.db.MustExec("CREATE TABLE src (id INTEGER, k INTEGER)")
		f.db.MustExec("INSERT INTO src VALUES (2000, 1), (2001, 2), (2002, NULL), (2003, 4)")
		rows := make([][]any, 1000)
		for i := range rows {
			rows[i] = []any{i, i % 7, fmt.Sprintf("s%d", i)}
		}
		if err := f.db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		name, sql string
		code      ErrorCode
	}{
		{"multi-row INSERT with a duplicate key",
			"INSERT INTO t VALUES (5000, 1, 'a'), (5001, 2, 'b'), (5000, 3, 'c')", ErrConstraint},
		{"INSERT...SELECT hitting NOT NULL part-way",
			"INSERT INTO t SELECT id, k, 'x' FROM src", ErrConstraint},
		{"UPDATE whose UDF errors after 5 rows",
			"UPDATE t SET s = BOOM_AFTER_5(s), k = k + 1", ErrMisuse},
		{"DELETE cancelled mid-scan",
			"DELETE FROM t WHERE CANCEL_AT_100(id)", ErrCanceled},
	}
	const earlier = "INSERT INTO t VALUES (9000, 9, 'kept')"
	for _, tc := range cases {
		t.Run(tc.name+"/autocommit", func(t *testing.T) {
			f := build()
			defer f.cancel()
			before := mustDump(f.db)
			n, err := f.db.ExecContext(f.ctx, tc.sql)
			if CodeOf(err) != tc.code {
				t.Fatalf("err = %v, want %s", err, tc.code)
			}
			if n != 0 {
				t.Errorf("failed statement reported %d rows, want 0", n)
			}
			if after := mustDump(f.db); after != before {
				t.Errorf("failed statement changed the database:\nbefore %d bytes, after %d bytes", len(before), len(after))
			}
		})
		t.Run(tc.name+"/txn", func(t *testing.T) {
			ref := build()
			ref.db.MustExec(earlier)
			want := mustDump(ref.db)

			f := build()
			defer f.cancel()
			tx := f.db.Begin()
			if _, err := tx.Exec(earlier); err != nil {
				t.Fatal(err)
			}
			n, err := tx.ExecContext(f.ctx, tc.sql)
			if CodeOf(err) != tc.code {
				t.Fatalf("err = %v, want %s", err, tc.code)
			}
			if n != 0 {
				t.Errorf("failed statement reported %d rows, want 0", n)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := mustDump(f.db); got != want {
				t.Errorf("committed state differs from the earlier statement alone:\ngot %d bytes, want %d bytes", len(got), len(want))
			}
		})
	}
}

// TestDMLNameErrorsWithoutQualifyingRows: DML compiles its WHERE and SET
// before reading a row, so an unknown column fails the statement even
// when no row qualifies — as it does for SELECT.
func TestDMLNameErrorsWithoutQualifyingRows(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 10)")
	for _, sql := range []string{
		"SELECT nosuch FROM t WHERE id = 999",
		"UPDATE t SET k = nosuch WHERE id = 999",
		"UPDATE t SET k = 1 WHERE id = 999 AND nosuch = 1",
		"DELETE FROM t WHERE id = 999 AND nosuch = 1",
		"DELETE FROM t WHERE nosuch > 5",
	} {
		if _, err := db.Exec(sql); CodeOf(err) != ErrNoColumn {
			t.Errorf("%q: err = %v, want ErrNoColumn", sql, err)
		}
	}
}
