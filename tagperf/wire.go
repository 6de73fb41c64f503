package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tag"
	"tag/internal/server/pgwire/pgwiretest"
)

// The wire-oltp workload: a durable database (tag.OpenDatabase, default
// SyncAlways) holding a sealed acct table, served by the Postgres wire
// server on loopback to wireConns connections in closed loops. Each
// connection owns a slice of the keys and keeps a model of the writes it
// made there: 80% point reads by primary key, checked against the model;
// 15% autocommit UPDATEs; 5% BEGIN / two UPDATEs / COMMIT transfers. All
// statements use the extended protocol with ? parameters. After the run
// the database is closed and reopened from its WAL directory, and every
// acknowledged write must be there.

const (
	acctRows  = 50_000
	wireConns = 2
	int8OID   = 20
	// wireWarmup is the unmeasured load before the measured phases.
	wireWarmup = 5 * time.Second
)

const (
	readSQL     = "SELECT balance, version FROM acct WHERE id = ?"
	updateSQL   = "UPDATE acct SET balance = balance + ?, version = version + 1 WHERE id = ?"
	transferSQL = "UPDATE acct SET balance = balance - ?, version = version + 1 WHERE id = ?"
)

// acctRow is the modelled state of one account.
type acctRow struct{ balance, version int64 }

// genAccounts generates the opening balances from a seed.
func genAccounts(seed int64, n int) []acctRow {
	r := rand.New(rand.NewSource(seed))
	out := make([]acctRow, n)
	for i := range out {
		out[i] = acctRow{balance: int64(r.Intn(100_000))}
	}
	return out
}

// wireOp is one client op kind.
type wireOp int

const (
	opRead wireOp = iota
	opUpdate
	opTransfer
)

// nextWireOp draws the op mix: 80% reads, 15% updates, 5% transfers.
func nextWireOp(r *rand.Rand) wireOp {
	switch x := r.Intn(100); {
	case x < 80:
		return opRead
	case x < 95:
		return opUpdate
	default:
		return opTransfer
	}
}

// wireState is one set-up: the database directory, the server and the
// client connections.
type wireState struct {
	dir       string
	db        *tag.Database
	srv       *tag.WireServer
	serveDone chan struct{}
	conns     []*pgwiretest.Conn
	connectMS []float64
}

func setupWire(dir string, accounts []acctRow) (*wireState, error) {
	st := &wireState{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := tag.OpenDatabase(dir)
	if err != nil {
		return nil, err
	}
	st.db = db
	if _, err := db.Exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, balance INTEGER, version INTEGER)"); err != nil {
		st.close()
		return nil, err
	}
	rows := make([][]any, len(accounts))
	for i, a := range accounts {
		rows[i] = []any{i, "owner-" + strconv.Itoa(i), a.balance, a.version}
	}
	if err := db.InsertRows("acct", rows); err != nil {
		st.close()
		return nil, err
	}
	// The bulk load triggers a background checkpoint. Restarting waits for
	// it, so every set-up ends in the same state: the server opens an
	// existing data directory, as tagserve -data does.
	if err := db.Close(); err != nil {
		st.db = nil
		st.close()
		return nil, err
	}
	if db, err = tag.OpenDatabase(dir); err != nil {
		st.db = nil
		st.close()
		return nil, err
	}
	st.db = db
	db.Seal()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = tag.NewWireServer(db, tag.WireServerOptions{})
	st.serveDone = make(chan struct{})
	go func() {
		defer close(st.serveDone)
		st.srv.Serve(lis)
	}()
	for i := 0; i < wireConns; i++ {
		start := time.Now()
		c, err := pgwiretest.Dial(lis.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.connectMS = append(st.connectMS, ms(time.Since(start)))
		st.conns = append(st.conns, c)
	}
	return st, nil
}

// stop closes the connections and the server, then the database.
func (st *wireState) stop() {
	for _, c := range st.conns {
		c.Terminate()
		c.Close()
	}
	st.conns = nil
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st.srv.Shutdown(ctx)
		cancel()
		<-st.serveDone
		st.srv = nil
	}
	if st.db != nil {
		st.db.Close()
		st.db = nil
	}
}

// close stops everything and removes the directory.
func (st *wireState) close() {
	st.stop()
	os.RemoveAll(st.dir)
}

// extQuery runs one statement through the extended protocol (Parse with
// int8 parameter types, Bind, Describe, Execute, Sync), as a client library does.
func extQuery(c *pgwiretest.Conn, sql string, params ...int64) (*pgwiretest.Result, error) {
	oids := make([]int32, len(params))
	vals := make([]*string, len(params))
	for i, p := range params {
		oids[i] = int8OID
		vals[i] = pgwiretest.Str(strconv.FormatInt(p, 10))
	}
	if err := c.SendParse("", sql, oids); err != nil {
		return nil, err
	}
	if err := c.SendBind("", "", vals); err != nil {
		return nil, err
	}
	if err := c.SendDescribe('P', ""); err != nil {
		return nil, err
	}
	if err := c.SendExecute("", 0); err != nil {
		return nil, err
	}
	if err := c.SendSync(); err != nil {
		return nil, err
	}
	return c.Collect()
}

// okTag reports a clean statement with the given command tag.
func okTag(res *pgwiretest.Result, err error, tag string) bool {
	return err == nil && res.Err == nil && len(res.Tags) == 1 && res.Tags[0] == tag
}

// wireClient is one connection's closed loop over its key range.
type wireClient struct {
	conn   *pgwiretest.Conn
	db     *tag.Database // for the in-process twin of each traced read
	r      *rand.Rand
	lo, hi int
	model  []acctRow // shared slice; this client writes only [lo, hi)
	log    *spanLog

	reads, writes latencies
	twins         latencies // in-process Database.Query twin of each traced read
	twinScanned   uint64
	twinTombs     uint64
	failed        int
}

func (c *wireClient) key() int64 { return int64(c.lo + c.r.Intn(c.hi-c.lo)) }

// run drives ops until the deadline.
func (c *wireClient) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.log.nextOp()
		switch nextWireOp(c.r) {
		case opRead:
			c.read()
		case opUpdate:
			c.update()
		case opTransfer:
			c.transfer()
		}
	}
}

func (c *wireClient) read() {
	id := c.key()
	sp := c.log.begin("pgwire.read")
	start := time.Now()
	res, err := extQuery(c.conn, readSQL, id)
	c.reads.add(time.Since(start))
	c.log.end(sp)
	want := c.model[id]
	ok := okTag(res, err, "SELECT 1") && len(res.Rows) == 1 && len(res.Rows[0]) == 2 &&
		res.Rows[0][0] != nil && res.Rows[0][1] != nil &&
		*res.Rows[0][0] == strconv.FormatInt(want.balance, 10) &&
		*res.Rows[0][1] == strconv.FormatInt(want.version, 10)
	if !ok {
		c.failed++
	}
	if c.log != nil {
		c.twin(id)
	}
}

// twin runs the same read in process, for the wire tax and the engine's
// per-read counters.
func (c *wireClient) twin(id int64) {
	sp := c.log.begin("sqldb.read")
	start := time.Now()
	rows, err := c.db.QueryRows(context.Background(), readSQL, id)
	if err == nil {
		for rows.Next() {
		}
		s := rows.Stats()
		c.twinScanned += s.RowsScanned
		c.twinTombs += s.TombstonesSkipped
		err = rows.Close()
	}
	c.twins.add(time.Since(start))
	c.log.end(sp)
	if err != nil {
		c.failed++
	}
}

func (c *wireClient) update() {
	id, delta := c.key(), int64(1+c.r.Intn(100))
	sp := c.log.begin("pgwire.update")
	start := time.Now()
	res, err := extQuery(c.conn, updateSQL, delta, id)
	c.writes.add(time.Since(start))
	c.log.end(sp)
	if !okTag(res, err, "UPDATE 1") {
		c.failed++
		return
	}
	c.model[id].balance += delta
	c.model[id].version++
}

func (c *wireClient) transfer() {
	from, to, amt := c.key(), c.key(), int64(1+c.r.Intn(100))
	for to == from {
		to = c.key()
	}
	sp := c.log.begin("pgwire.transfer")
	start := time.Now()
	res, err := extQuery(c.conn, "BEGIN")
	ok := okTag(res, err, "BEGIN")
	if ok {
		res, err = extQuery(c.conn, transferSQL, amt, from)
		ok = okTag(res, err, "UPDATE 1")
	}
	if ok {
		res, err = extQuery(c.conn, updateSQL, amt, to)
		ok = okTag(res, err, "UPDATE 1")
	}
	if ok {
		res, err = extQuery(c.conn, "COMMIT")
		ok = okTag(res, err, "COMMIT")
	} else if err == nil {
		extQuery(c.conn, "ROLLBACK")
	}
	c.writes.add(time.Since(start))
	c.log.end(sp)
	if !ok {
		c.failed++
		return
	}
	c.model[from].balance -= amt
	c.model[from].version++
	c.model[to].balance += amt
	c.model[to].version++
}

// wirePhase runs every client until d has elapsed.
func wirePhase(clients []*wireClient, d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *wireClient) {
			defer wg.Done()
			c.run(deadline)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// collect merges the clients' latencies and failures, then resets them.
func collect(clients []*wireClient) (reads, writes latencies, failed int) {
	for _, c := range clients {
		reads = append(reads, c.reads...)
		writes = append(writes, c.writes...)
		failed += c.failed
		c.reads, c.writes, c.failed = nil, nil, 0
	}
	return reads, writes, failed
}

// verifyReopened reopens the closed database from its directory and
// counts accounts whose balance or version differs from the model.
func verifyReopened(dir string, model []acctRow) (int, error) {
	db, err := tag.OpenDatabase(dir)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	res, err := db.Query("SELECT id, balance, version FROM acct ORDER BY id")
	if err != nil {
		return 0, err
	}
	bad := len(model) - len(res.Rows)
	for _, row := range res.Rows {
		id := row[0].AsInt()
		if id < 0 || int(id) >= len(model) || row[1].AsInt() != model[id].balance || row[2].AsInt() != model[id].version {
			bad++
		}
	}
	return bad, nil
}

func runWireOLTP(cfg config) (*report, error) {
	accounts := genAccounts(cfg.seed, acctRows)
	root := filepath.Join(outDir, fmt.Sprintf("wire-%d", os.Getpid()))
	defer os.RemoveAll(root)
	base := heapMB()
	rep := &report{}
	setups := 0
	var connectMS []float64
	st, setupS, err := setupTimes(func() (*wireState, error) {
		setups++
		st, err := setupWire(filepath.Join(root, strconv.Itoa(setups)), accounts)
		if err == nil {
			connectMS = append(connectMS, st.connectMS...)
		}
		return st, err
	}, (*wireState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.add("setup_s", setupS, "s")
	rep.add("heap_mb", heapMB()-base, "MB")

	model := append([]acctRow(nil), accounts...)
	clients := make([]*wireClient, wireConns)
	for i := range clients {
		clients[i] = &wireClient{
			conn: st.conns[i], db: st.db, model: model,
			r:  rand.New(rand.NewSource(cfg.seed*wireConns + int64(i))),
			lo: i * acctRows / wireConns, hi: (i + 1) * acctRows / wireConns,
		}
	}
	// Writes unseal blocks and grow version chains until vacuum keeps
	// pace; a few seconds of the same load reach that steady state before
	// anything is measured. Their failures still count.
	wirePhase(clients, wireWarmup)
	warmReads, warmWrites, warmFailed := collect(clients)
	untracedD, tracedD := phases(cfg)
	elapsed := wirePhase(clients, untracedD)
	reads, writes, failed := collect(clients)
	all := append(append(latencies(nil), reads...), writes...)
	rep.attempted = len(warmReads) + len(warmWrites) + len(all)
	rep.failed = warmFailed + failed
	split := []metric{
		{"read_p50_ms", percentile(reads, 50), "ms"},
		{"read_p99_ms", percentile(reads, 99), "ms"},
		{"write_p50_ms", percentile(writes, 50), "ms"},
		{"write_p99_ms", percentile(writes, 99), "ms"},
	}
	rep.metrics = append(rep.metrics, split...)
	rep.notes = append(rep.notes, fmt.Sprintf("ops reads %d writes %d", len(reads), len(writes)))
	addEndToEnd(rep, all, elapsed)
	if cfg.trace {
		origin := time.Now()
		before := st.db.Stats()
		for _, c := range clients {
			c.log = newSpanLog(origin)
		}
		wirePhase(clients, tracedD)
		after := st.db.Stats()
		tReads, tWrites, tFailed := collect(clients)
		rep.attempted += len(tReads) + len(tWrites)
		rep.failed += tFailed
		log := newSpanLog(origin)
		var twins latencies
		var twinScanned, twinTombs uint64
		for _, c := range clients {
			log.merge(c.log)
			twins = append(twins, c.twins...)
			twinScanned += c.twinScanned
			twinTombs += c.twinTombs
		}
		rep.spans = log
		tAll := append(append(latencies(nil), tReads...), tWrites...)
		rep.add("trace_overhead_ms", percentile(tAll, 50)-percentile(all, 50), "ms")
		rep.add("pgwire.connect_ms", median(connectMS), "ms")
		rep.add("pgwire.read_tax_ms", percentile(tReads, 50)-percentile(twins, 50), "ms")
		rep.add("sqldb.rows_scanned_per_read", perOp(twinScanned, len(twins)), "count")
		// Wire reads scan what their twins scan; the rest is the writes'.
		writeScanned := after.RowsScanned - before.RowsScanned - 2*twinScanned
		rep.add("sqldb.rows_scanned_per_write", perOp(writeScanned, len(tWrites)), "count")
		appends := after.WALAppends - before.WALAppends
		rep.add("sqldb.wal_fsyncs_per_commit", perOp(appends-(after.WALGroupCommits-before.WALGroupCommits), int(appends)), "fsync/commit")
		rep.add("sqldb.wal_bytes_per_write", perOp(after.WALBytes-before.WALBytes, len(tWrites)), "B")
		rep.add("sqldb.segments_sealed", float64(after.SegmentsSealed-before.SegmentsSealed), "count")
		rep.add("sqldb.tombstones_skipped_per_read", perOp(twinTombs, len(twins)), "count")
		rep.add("sqldb.versions_reclaimed", float64(after.VersionsReclaimed-before.VersionsReclaimed), "count")
		plan, err := st.db.Explain(readSQL, int64(0))
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "plan read: "+planKind(plan))
		rep.notes = append(rep.notes, log.selfNotes()...)
	}

	// Durability: every acknowledged write survives a close and reopen.
	st.stop()
	bad, err := verifyReopened(st.dir, model)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", st.dir, err)
	}
	if bad > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("check reopen: %d accounts differ from the acknowledged writes", bad))
		rep.failed += bad
	}
	return rep, nil
}
