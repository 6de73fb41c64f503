package sqldb

import (
	"context"
	"fmt"
	"strings"
)

// Result is a fully materialised query result — what Rows.Collect
// returns. Callers that consume rows incrementally (or stop early) should
// prefer Database.QueryRows.
type Result struct {
	Columns []string
	Rows    []Row
}

// ColumnIndex returns the ordinal of the named result column
// (case-insensitive), or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Value returns the value at (row, named column). Missing columns or
// out-of-range rows return NULL.
func (r *Result) Value(row int, col string) Value {
	i := r.ColumnIndex(col)
	if i < 0 || row < 0 || row >= len(r.Rows) {
		return Null
	}
	return r.Rows[row][i]
}

// String renders the result as an aligned text table (for the CLI shell and
// for debugging).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.AsText()
			if v.IsNull() {
				s = "NULL"
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(pad(c, widths[i]))
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(s, widths[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Query executes a SELECT statement, materialising its rows. It is
// Collect over QueryRows: parses are served from the database's LRU plan
// cache, so repeated queries skip the parser; callers executing one
// statement many times can also hold a *Stmt from Prepare, and callers
// that consume rows incrementally should use QueryRows directly.
func (db *Database) Query(sql string, params ...any) (*Result, error) {
	return db.QueryContext(context.Background(), sql, params...)
}

// QueryContext is Query under a context: cancellation or deadline expiry
// stops the scan mid-flight with an ErrCanceled error.
func (db *Database) QueryContext(ctx context.Context, sql string, params ...any) (*Result, error) {
	rows, err := db.QueryRows(ctx, sql, params...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// QueryStmt executes an already parsed SELECT, materialising its rows.
func (db *Database) QueryStmt(sel *SelectStmt, params ...any) (*Result, error) {
	return db.QueryStmtContext(context.Background(), sel, params...)
}

// QueryStmtContext is QueryStmt under a context.
func (db *Database) QueryStmtContext(ctx context.Context, sel *SelectStmt, params ...any) (*Result, error) {
	return db.querySelect(ctx, sel, bindParams(params), nil)
}

// querySelect runs an already parsed SELECT to a materialised Result,
// optionally inside a transaction.
func (db *Database) querySelect(ctx context.Context, sel *SelectStmt, vals []Value, tx *Txn) (*Result, error) {
	rows, err := db.queryRows(ctx, sel, vals, tx)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Exec parses and executes any statement. For SELECT it streams rows to
// /dev/null and returns their count; for DML it returns the number of
// affected rows; for DDL it returns 0.
func (db *Database) Exec(sql string, params ...any) (int, error) {
	return db.ExecContext(context.Background(), sql, params...)
}

// ExecContext is Exec under a context: long scans and DML loops observe
// cancellation mid-flight.
func (db *Database) ExecContext(ctx context.Context, sql string, params ...any) (int, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return 0, err
	}
	qc := newQueryCtx(ctx, db)
	defer qc.flush()
	vals := bindParams(params)
	total := 0
	for _, stmt := range stmts {
		if err := qc.cancelled(); err != nil {
			return total, err
		}
		n, err := db.execStmt(qc, stmt, vals, nil)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// MustExec is Exec that panics on error — intended for test fixtures and
// generated data loading where failure is a programming bug.
func (db *Database) MustExec(sql string, params ...any) {
	if _, err := db.Exec(sql, params...); err != nil {
		panic(fmt.Sprintf("sqldb: MustExec(%.80q): %v", sql, err))
	}
}

func bindParams(params []any) []Value {
	vals := make([]Value, len(params))
	for i, p := range params {
		vals[i] = GoValue(p)
	}
	return vals
}

// execStmt executes one statement. tx is the explicit transaction handle
// when called through Txn methods, nil for bare Exec calls — which join
// the open session transaction, if any (currentTxn resolves inside the
// per-kind entry points).
func (db *Database) execStmt(qc *queryCtx, stmt Statement, params []Value, tx *Txn) (int, error) {
	switch t := stmt.(type) {
	case *SelectStmt:
		// Stream the plan and count: rows are never materialised, and a
		// LIMIT stops the scan early. Parallel-scan workers (if any) are
		// stopped before the snapshot is released — defers run LIFO.
		qc.queries++
		snap, release := db.beginRead(tx)
		qc.snap = snap
		defer func() {
			qc.snap = nil
			release()
		}()
		defer qc.stopWorkers()
		root, _, err := buildSelectPlan(t, db, params, nil, true, qc)
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			_, ok, err := root.next()
			if err != nil {
				return n, err
			}
			if !ok {
				return n, nil
			}
			n++
			qc.rowsEmitted++
		}
	case *BeginStmt:
		qc.execs++
		if tx != nil {
			return 0, errf(ErrMisuse, "sql: cannot start a transaction within a transaction")
		}
		return 0, db.beginSession()
	case *CommitStmt:
		qc.execs++
		if tx != nil {
			return 0, tx.Commit()
		}
		stx, err := db.takeSession()
		if err != nil {
			return 0, err
		}
		return 0, stx.Commit()
	case *RollbackStmt:
		qc.execs++
		if tx != nil {
			return 0, tx.Rollback()
		}
		stx, err := db.takeSession()
		if err != nil {
			return 0, err
		}
		return 0, stx.Rollback()
	case *CreateTableStmt:
		qc.execs++
		return 0, db.createTable(t, tx)
	case *CreateIndexStmt:
		qc.execs++
		return 0, db.createIndex(t, tx)
	case *DropTableStmt:
		qc.execs++
		return 0, db.dropTable(t, tx)
	case *InsertStmt:
		qc.execs++
		return db.execInsert(t, params, qc, tx)
	case *UpdateStmt:
		qc.execs++
		return db.execUpdate(t, params, qc, tx)
	case *DeleteStmt:
		qc.execs++
		return db.execDelete(t, params, qc, tx)
	default:
		return 0, errf(ErrMisuse, "sql: cannot execute %T", stmt)
	}
}

// DDL takes the single-writer latch for the statement (or rides an open
// transaction's latch span) and publishes the schema change
// copy-on-write, so lock-free readers always observe a complete table
// map. Inside an explicit transaction DDL is transactional: rollback
// unpublishes it, and the WAL records it inside the transaction's frame;
// autocommit DDL is logged as a standalone self-committed record.
func (db *Database) createTable(stmt *CreateTableStmt, tx *Txn) error {
	tx, unlock := db.acquireWrite(tx)
	defer unlock()
	key := strings.ToLower(stmt.Name)
	if _, exists := db.tableMap()[key]; exists {
		if stmt.IfNotExists {
			return nil
		}
		return errf(ErrSchema, "sql: table %s already exists", stmt.Name)
	}
	t, err := newTable(stmt)
	if err != nil {
		return err
	}
	db.publishTables(func(m map[string]*Table) { m[key] = t })
	if tx != nil {
		tx.recordDDL(undoCreateTable, t, key)
		tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
		return nil
	}
	return db.logAutocommitDDL(stmt.String())
}

// logAutocommitDDL appends one standalone DDL record to the WAL (no-op
// in memory-only mode or while recovery replays). An ErrIO here follows
// the commit-path contract: the schema change stands in memory, the WAL
// is poisoned.
func (db *Database) logAutocommitDDL(sql string) error {
	if w := db.wal; w != nil && w.armed.Load() {
		return w.appendDDL(sql)
	}
	return nil
}

func (db *Database) createIndex(stmt *CreateIndexStmt, tx *Txn) error {
	tx, unlock := db.acquireWrite(tx)
	defer unlock()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return err
	}
	ci := t.ColumnIndex(stmt.Column)
	if ci < 0 {
		return errf(ErrNoColumn, "sql: no such column %s.%s", stmt.Table, stmt.Column)
	}
	key := strings.ToLower(stmt.Column)
	if _, exists := t.idxs()[key]; exists {
		return nil // idempotent: one index per column is all we support
	}
	idx := &Index{Name: stmt.Name, Column: ci, Unique: stmt.Unique, m: make(map[string]posting)}
	// Index every surviving version of every chain (the superset contract:
	// snapshots older than the statement must find their rows through the
	// new index too). The UNIQUE duplicate check runs on latest rows only.
	arr, n := t.loadSlots()
	var seen map[string]bool
	if stmt.Unique {
		seen = make(map[string]bool, n)
	}
	for id := 0; id < n; id++ {
		head := arr[id].head.Load()
		if head == nil {
			continue
		}
		if stmt.Unique {
			if r := latestRow(head); r != nil && !r[ci].IsNull() {
				k := r[ci].Key()
				if seen[k] {
					return errf(ErrConstraint, "sql: cannot create UNIQUE index %s: duplicate value %s", stmt.Name, r[ci])
				}
				seen[k] = true
			}
		}
		for v := head; v != nil; v = v.next.Load() {
			if v.xmin == invalidXID || v.row == nil {
				continue
			}
			val := v.row[ci]
			k := val.Key()
			p := idx.m[k]
			if p.ids == nil {
				p.val = val
			}
			p.ids = spliceID(p.ids, id)
			idx.m[k] = p
		}
	}
	t.publishIndexes(func(m map[string]*Index) { m[key] = idx })
	if tx != nil {
		tx.recordDDL(undoCreateIndex, t, key)
		tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
		return nil
	}
	return db.logAutocommitDDL(stmt.String())
}

func (db *Database) dropTable(stmt *DropTableStmt, tx *Txn) error {
	tx, unlock := db.acquireWrite(tx)
	defer unlock()
	key := strings.ToLower(stmt.Name)
	t, exists := db.tableMap()[key]
	if !exists {
		if stmt.IfExists {
			return nil
		}
		return errf(ErrNoTable, "sql: no such table: %s", stmt.Name)
	}
	db.publishTables(func(m map[string]*Table) { delete(m, key) })
	if tx != nil {
		tx.recordDDL(undoDropTable, t, key)
		tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
		return nil
	}
	return db.logAutocommitDDL(stmt.String())
}

// Every INSERT, UPDATE and DELETE runs in two phases. Phase 1 is
// read-only and runs under the statement snapshot beginWrite captured:
// UPDATE and DELETE pick their victims through the planner's single-table
// access path (dmlVictims), every new row is computed with compiled
// expressions, and Table.validate checks the whole statement — arity,
// coercion, NOT NULL, and UNIQUE on the statement's final state. Phase 2
// applies the changes in ascending row id through insertRow, updateRow and
// deleteRow, which cannot fail; WAL replay's content addressing
// (recovery.go) depends on that order. Errors and cancellation can only
// strike in phase 1, so a failed statement leaves no trace — no applied
// row, no undo record, no WAL op — in autocommit and inside a transaction
// alike. The statement's own writes are never visible to phase 1, which
// is what keeps self-referential subqueries (the Halloween problem)
// evaluating against the pre-statement state.

func (db *Database) execInsert(stmt *InsertStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, end, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	// end() publishes the autocommit statement; on a durable database it
	// also appends the WAL record, whose failure must surface as the
	// statement's error: an I/O failure poisons the log.
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return 0, err
	}
	// Map the statement's column list to table ordinals.
	colOrder := make([]int, 0, len(t.Columns))
	if len(stmt.Columns) == 0 {
		for i := range t.Columns {
			colOrder = append(colOrder, i)
		}
	} else {
		for _, name := range stmt.Columns {
			ci := t.ColumnIndex(name)
			if ci < 0 {
				return 0, errf(ErrNoColumn, "sql: table %s has no column named %s", t.Name, name)
			}
			colOrder = append(colOrder, ci)
		}
	}

	var sourceRows []Row
	if stmt.Select != nil {
		if sourceRows, _, err = execSelect(stmt.Select, db, params, nil, qc); err != nil {
			return 0, err
		}
	} else {
		env := newEvalEnv(nil, db, params, nil, qc)
		for _, exprs := range stmt.Rows {
			row := make(Row, len(exprs))
			for i, e := range exprs {
				if row[i], err = evalConst(e, env); err != nil {
					return 0, err
				}
			}
			sourceRows = append(sourceRows, row)
		}
	}
	rows := sourceRows // rewritten in place to full table-order rows
	for i, src := range sourceRows {
		if len(src) != len(colOrder) {
			return 0, errf(ErrMisuse, "sql: table %s expects %d values, got %d", t.Name, len(colOrder), len(src))
		}
		full := make(Row, len(t.Columns))
		for ci := range full {
			full[ci] = Null
		}
		for j, ci := range colOrder {
			full[ci] = src[j]
		}
		rows[i] = full
	}
	if err := t.validate(nil, rows); err != nil {
		return 0, err
	}
	for _, r := range rows {
		t.insertRow(r, qc, wtx)
	}
	return len(rows), nil
}

// dmlVictims is phase 1's victim selection for UPDATE and DELETE, planned
// as the planner plans a single-table SELECT: the WHERE conjuncts an index
// can serve pick sc's access path (chooseScanAccess) and the rest compile
// into a filter, so name-resolution errors surface before any row is read.
// It calls visit on every qualifying row and returns their ids; each
// access path emits rows in ascending row id.
func dmlVictims(sc *scanOp, where Expr, db *Database, params []Value, qc *queryCtx, visit func(Row) error) ([]int, error) {
	var root operator = sc
	if where != nil {
		if rest := joinConjuncts(chooseScanAccess(sc, splitConjuncts(where), params)); rest != nil {
			f, err := newFilterOp(sc, rest, db, params, nil, qc)
			if err != nil {
				return nil, err
			}
			root = f
		}
	}
	var ids []int
	for {
		r, ok, err := root.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if visit != nil {
			if err := visit(r); err != nil {
				return nil, err
			}
		}
		ids = append(ids, sc.lastID)
	}
	// The scan samples cancellation; a cancellation it did not sample
	// still stops the statement before phase 2.
	return ids, qc.cancelled()
}

func (db *Database) execUpdate(stmt *UpdateStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, end, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return 0, err
	}
	sc := newScanOp(t, t.Name, qc)
	env := newEvalEnv(sc.cols, db, params, nil, qc)
	setCols := make([]int, len(stmt.Set))
	sets := make([]compiledExpr, len(stmt.Set))
	for i, s := range stmt.Set {
		if setCols[i] = t.ColumnIndex(s.Column); setCols[i] < 0 {
			return 0, errf(ErrNoColumn, "sql: table %s has no column named %s", t.Name, s.Column)
		}
		if sets[i], err = compileExpr(s.Expr, env); err != nil {
			return 0, err
		}
	}
	// SET expressions all read the row's current values (env.row), so
	// SET a = b, b = a swaps.
	var olds, news []Row
	ids, err := dmlVictims(sc, stmt.Where, db, params, qc, func(r Row) error {
		env.row = r
		updated := r.Clone()
		for i, set := range sets {
			v, err := set()
			if err != nil {
				return err
			}
			updated[setCols[i]] = v
		}
		olds, news = append(olds, r), append(news, updated)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := t.validate(olds, news); err != nil {
		return 0, err
	}
	for i, id := range ids {
		t.updateRow(id, news[i], qc, wtx)
	}
	return len(ids), nil
}

func (db *Database) execDelete(stmt *DeleteStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, end, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return 0, err
	}
	ids, err := dmlVictims(newScanOp(t, t.Name, qc), stmt.Where, db, params, qc, nil)
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		t.deleteRow(id, wtx)
	}
	return len(ids), nil
}

// InsertRows bulk-loads rows (Go values, table column order) into a table
// as one autocommit write, validated as one statement before any row is
// applied. It is the fast path used by the benchmark data generators.
func (db *Database) InsertRows(table string, rows [][]any) (err error) {
	qc := newQueryCtx(context.Background(), db)
	defer qc.flush()
	wtx, end, err := db.beginWrite(qc, nil)
	if err != nil {
		return err
	}
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	vals := make([]Row, len(rows))
	for i, raw := range rows {
		row := make(Row, len(raw))
		for j, x := range raw {
			row[j] = GoValue(x)
		}
		vals[i] = row
	}
	if err := t.validate(nil, vals); err != nil {
		return err
	}
	for _, r := range vals {
		t.insertRow(r, qc, wtx)
	}
	return nil
}
