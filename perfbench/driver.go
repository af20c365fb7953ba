package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mv"
	"repro/internal/sv"
)

const (
	// warmup runs the clients before the measured interval so pools, caches
	// and the engines' lazy structures are filled before timing starts.
	warmup = 300 * time.Millisecond
	// slices splits the measured interval; tx_per_s is the median of the
	// per-slice rates, so one burst of outside load moves one slice, not the
	// figure. In a traced run odd slices are traced and even ones are not.
	slices = 6
	// reservoirCap bounds each client's latency sample per slice (Algorithm
	// R); a scheme's p99 rests on up to 1,966 samples beyond it with two
	// clients, and on every transaction when fewer ran.
	reservoirCap = 1 << 14
	// heapBurst is how long clients run between two heap readings.
	heapBurst = 50 * time.Millisecond
	// pendingEvery is the gc.pending_versions sampling period.
	pendingEvery = 10 * time.Millisecond
	// Before retry n a client waits a uniform random time below
	// retryBase<<min(n-1, retryMaxShift) (16 us doubling to 1 ms). Without
	// it two 1V clients that deadlocked on a lock upgrade time out together
	// and repeat the same collision: hotspot then commits nothing. The wait
	// spins (yielding) rather than sleeps: when every goroutine is parked the
	// Go runtime wakes timers with millisecond granularity, so a 16 us sleep
	// could last a millisecond, and which one it got changed with the
	// process's memory layout (1V hotspot moved 3x with the environment's
	// size).
	retryBase     = 16 * time.Microsecond
	retryMaxShift = 6
)

// errRowExists is the TATP "row exists" outcome found by the benchmark
// itself: on 1V the insert committed a second row with an existing primary
// key (the engine does not check uniqueness), so the benchmark aborts it.
var errRowExists = errors.New("perfbench: call forwarding row exists")

// retryable reports whether err aborted an attempt that the client retries:
// conflicts, failed validation, lock failures, cascades and 1V lock
// timeouts. Any other error ends the client transaction.
func retryable(err error) bool {
	for _, e := range []error{
		mv.ErrWriteConflict, mv.ErrValidation, mv.ErrReadLockFailed,
		mv.ErrPhantomRisk, mv.ErrWaitForRefused, mv.ErrAborted,
		sv.ErrLockTimeout, sv.ErrConflict,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// expected reports whether err is an outcome the TATP specification
// expects ("row exists" on INSERT_CALL_FORWARDING); it is neither retried
// nor failed.
func expected(err error) bool {
	return errors.Is(err, mv.ErrDuplicateKey) || errors.Is(err, errRowExists)
}

// counts tallies one client's transactions of one class. The fields are
// atomic so the coordinator can read them at slice boundaries while the
// client runs.
type counts struct {
	attempted, committed, retried, expected, failed atomic.Uint64
	// dupAccepted counts 1V inserts of an existing key that the engine
	// accepted (found by the benchmark's read-back; see errRowExists).
	dupAccepted atomic.Uint64
	rows        atomic.Uint64 // rows delivered by committed transactions
	writes      atomic.Uint64 // rows handed to Update/Insert, all attempts
	begins      atomic.Uint64 // attempts
	_           [64]byte
}

// tally is a plain snapshot of counts.
type tally struct {
	attempted, committed, retried, expected, failed, dupAccepted, rows, writes, begins uint64
}

func (c *counts) snap() tally {
	return tally{c.attempted.Load(), c.committed.Load(), c.retried.Load(), c.expected.Load(),
		c.failed.Load(), c.dupAccepted.Load(), c.rows.Load(), c.writes.Load(), c.begins.Load()}
}

func (a tally) add(b tally) tally {
	return tally{a.attempted + b.attempted, a.committed + b.committed, a.retried + b.retried,
		a.expected + b.expected, a.failed + b.failed, a.dupAccepted + b.dupAccepted,
		a.rows + b.rows, a.writes + b.writes, a.begins + b.begins}
}

func (a tally) sub(b tally) tally {
	return tally{a.attempted - b.attempted, a.committed - b.committed, a.retried - b.retried,
		a.expected - b.expected, a.failed - b.failed, a.dupAccepted - b.dupAccepted,
		a.rows - b.rows, a.writes - b.writes, a.begins - b.begins}
}

// reservoir keeps a uniform sample of latencies (Algorithm R).
type reservoir struct {
	xs   []float64 // microseconds
	seen uint64
	rng  *rand.Rand
}

func (r *reservoir) add(d time.Duration) {
	r.seen++
	us := float64(d) / float64(time.Microsecond)
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, us)
		return
	}
	if j := r.rng.Int63n(int64(r.seen)); j < int64(len(r.xs)) {
		r.xs[j] = us
	}
}

// latencyQuantiles merges the clients' reservoirs, weighting each sample by
// how many transactions it stands for, and returns the requested quantiles
// and the number of transactions sampled.
func latencyQuantiles(rs []*reservoir, qs ...float64) ([]float64, uint64) {
	type wx struct{ x, w float64 }
	var all []wx
	var total float64
	var n uint64
	for _, r := range rs {
		if len(r.xs) == 0 {
			continue
		}
		w := float64(r.seen) / float64(len(r.xs))
		for _, x := range r.xs {
			all = append(all, wx{x, w})
		}
		total += float64(r.seen)
		n += r.seen
	}
	out := make([]float64, len(qs))
	if len(all) == 0 {
		return out, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].x < all[j].x })
	for i, q := range qs {
		target := q * total
		acc := 0.0
		out[i] = all[len(all)-1].x
		for _, s := range all {
			acc += s.w
			if acc >= target {
				out[i] = s.x
				break
			}
		}
	}
	return out, n
}

// control is shared by the clients of one scheme's run.
type control struct {
	stop    atomic.Bool
	slice   atomic.Int32 // measured slice in progress; -1 outside the measured interval
	tracing atomic.Bool
}

// client is one closed-loop client: it sends its next transaction only
// after the previous one committed or ended.
type client struct {
	id  int
	rng *rand.Rand
	db  *core.Database
	ctl *control
	// main counts the transactions tx_per_s counts; aux the others (the
	// long_reader reports).
	main, aux counts
	lat       [slices]reservoir // latencies of main transactions, per slice
	jitter    *rand.Rand        // retry backoff; kept apart from rng so inputs do not depend on timing
	tr        *tracer           // nil in untraced runs
	tracing   bool              // tracing the current client transaction
	// per-attempt scratch, folded into counts when the attempt ends
	rows, writes uint64
}

// newClients returns p.clients clients sharing one control. They are made
// before the workload's heap baseline is read, so their buffers are not
// counted in heap_bytes_per_row; bind gives them the database.
func newClients(p params) []*client {
	ctl := &control{}
	ctl.slice.Store(-1)
	cs := make([]*client, p.clients)
	for id := range cs {
		c := &client{
			id:     id,
			rng:    rand.New(rand.NewSource(p.seed*1_000_003 + int64(id)*7919 + 17)),
			ctl:    ctl,
			jitter: rand.New(rand.NewSource(p.seed*31 + int64(id))),
		}
		for k := range c.lat {
			c.lat[k] = reservoir{xs: make([]float64, 0, reservoirCap), rng: rand.New(rand.NewSource(p.seed + int64(id*slices+k)))}
		}
		if p.trace {
			c.tr = newTracer()
		}
		cs[id] = c
	}
	return cs
}

func bind(cs []*client, db *core.Database) {
	for _, c := range cs {
		c.db = db
	}
}

// do runs one client transaction: body inside a fresh transaction,
// committed, and retried from Begin, after a randomized backoff, while it
// aborts for a retryable reason.
// It returns nil once committed; the caller then folds its own model tally.
// Latency runs from the first Begin to the successful Commit.
func (c *client) do(cnt *counts, body func(tx *core.Tx) error, opts ...core.TxOption) error {
	slice := c.ctl.slice.Load()
	c.tracing = c.tr != nil && c.ctl.tracing.Load()
	cnt.attempted.Add(1)
	start := time.Now()
	var txSpan int32
	if c.tracing {
		c.tr.nextTx()
		txSpan = c.tr.open(spanTx)
	}
	for retries := 0; ; retries++ {
		if retries > 0 {
			window := int64(retryBase) << min(retries-1, retryMaxShift)
			until := time.Now().Add(time.Duration(c.jitter.Int63n(window)))
			for time.Now().Before(until) {
				runtime.Gosched()
			}
		}
		var at int32
		if c.tracing {
			at = c.tr.open(spanAttempt)
		}
		c.rows, c.writes = 0, 0
		tx := c.begin(opts)
		err := body(tx)
		if err == nil {
			err = c.commit(tx)
		} else {
			c.abort(tx)
		}
		cnt.begins.Add(1)
		cnt.writes.Add(c.writes)
		if c.tracing {
			c.tr.closeAttempt(at, err != nil && retryable(err))
		}
		if err == nil {
			if c.tracing {
				c.tr.committed++
			}
			cnt.committed.Add(1)
			cnt.rows.Add(c.rows)
			if slice >= 0 && cnt == &c.main {
				c.lat[slice].add(time.Since(start))
			}
		} else if retryable(err) {
			cnt.retried.Add(1)
			continue
		} else if expected(err) {
			cnt.expected.Add(1)
			if errors.Is(err, errRowExists) {
				cnt.dupAccepted.Add(1)
			}
		} else {
			cnt.failed.Add(1)
		}
		if c.tracing {
			c.tr.close(txSpan)
		}
		return err
	}
}

// The methods below are the benchmark's only doors into core during the
// measured interval; each is a span in a traced run.

func (c *client) begin(opts []core.TxOption) *core.Tx {
	if !c.tracing {
		return c.db.Begin(opts...)
	}
	s := c.tr.open(spanBegin)
	tx := c.db.Begin(opts...)
	c.tr.close(s)
	return tx
}

func (c *client) commit(tx *core.Tx) error {
	if !c.tracing {
		return tx.Commit()
	}
	s := c.tr.open(spanCommit)
	err := tx.Commit()
	c.tr.close(s)
	return err
}

// abort ends an attempt whose body failed. The error is dropped: the body
// error already decides the outcome, and an engine that aborted the
// transaction internally reports the handle as done.
func (c *client) abort(tx *core.Tx) {
	if !c.tracing {
		_ = tx.Abort()
		return
	}
	s := c.tr.open(spanAbort)
	_ = tx.Abort()
	c.tr.close(s)
}

// scan counts the rows fn accepts as delivered.
func (c *client) scan(tx *core.Tx, t *core.Table, index int, key uint64, pred core.Pred, fn func(core.Row) bool) error {
	var s int32
	if c.tracing {
		s = c.tr.open(spanRead)
	}
	err := tx.Scan(t, index, key, pred, func(r core.Row) bool {
		c.rows++
		return fn(r)
	})
	if c.tracing {
		c.tr.close(s)
	}
	return err
}

// scanRange counts the rows fn accepts as delivered.
func (c *client) scanRange(tx *core.Tx, t *core.Table, index int, lo, hi uint64, fn func(core.Row) bool) error {
	var s int32
	if c.tracing {
		s = c.tr.open(spanRead)
	}
	err := tx.ScanRange(t, index, lo, hi, nil, func(r core.Row) bool {
		c.rows++
		return fn(r)
	})
	if c.tracing {
		c.tr.close(s)
	}
	return err
}

func (c *client) updateWhere(tx *core.Tx, t *core.Table, index int, key uint64, pred core.Pred, mut func([]byte) []byte) (int, error) {
	var s int32
	if c.tracing {
		s = c.tr.open(spanWrite)
	}
	n, err := tx.UpdateWhere(t, index, key, pred, mut)
	if c.tracing {
		c.tr.close(s)
	}
	if err == nil {
		c.writes += uint64(n)
	}
	return n, err
}

func (c *client) deleteWhere(tx *core.Tx, t *core.Table, index int, key uint64, pred core.Pred) (int, error) {
	var s int32
	if c.tracing {
		s = c.tr.open(spanWrite)
	}
	n, err := tx.DeleteWhere(t, index, key, pred)
	if c.tracing {
		c.tr.close(s)
	}
	return n, err
}

func (c *client) insert(tx *core.Tx, t *core.Table, payload []byte) error {
	var s int32
	if c.tracing {
		s = c.tr.open(spanWrite)
	}
	err := tx.Insert(t, payload)
	if c.tracing {
		c.tr.close(s)
	}
	if err == nil {
		c.writes++
	}
	return err
}

// interval is what one scheme's measured interval produced.
type interval struct {
	elapsed     time.Duration
	sliceTx     []float64 // committed main transactions per second, per slice
	sliceRows   []float64 // rows delivered by main transactions per second
	sliceTraced []bool
	main, aux   tally // deltas over the measured interval
	before      engineSnap
	after       engineSnap
	mem0, mem1  runtime.MemStats
	pending     []float64 // gc.Collector().Pending() samples (MV only)
	heap        float64   // live heap after the interval (see runClients)
}

// runClients runs loop on every client through warm-up and the measured
// interval, then stops them. It then reads the live heap after a forced
// collection, heapStops times in all: between readings the clients run
// for heapBurst, unmeasured, and stop again. The median reading is the
// interval's heap; one reading swings by tens of percent on a small table,
// where the transactions parked at the stop outweigh the rows.
func runClients(p params, db *core.Database, clients []*client, heapStops int, loop func(c *client)) interval {
	ctl := clients[0].ctl
	bind(clients, db)
	start := func() (stop func()) {
		ctl.stop.Store(false)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for !ctl.stop.Load() {
					loop(c)
				}
			}(c)
		}
		return func() {
			ctl.stop.Store(true)
			wg.Wait()
		}
	}
	stop := start()
	defer func() { stop() }()

	time.Sleep(warmup)
	// Every measured interval starts right after a collection, so it does
	// not inherit a GC phase from set-up.
	runtime.GC()

	var iv interval
	sum := func() (m, a tally) {
		for _, c := range clients {
			m = m.add(c.main.snap())
			a = a.add(c.aux.snap())
		}
		return m, a
	}

	// The pending-versions sampler runs only during the measured interval
	// and has exited before the interval's end is recorded.
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if mvEng := db.MV(); mvEng != nil {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			t := time.NewTicker(pendingEvery)
			defer t.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-t.C:
					iv.pending = append(iv.pending, float64(mvEng.Collector().Pending()))
				}
			}
		}()
	}

	iv.before = snapEngine(db)
	runtime.ReadMemStats(&iv.mem0)
	m0, a0 := sum()
	t0 := time.Now()
	prevM, prevT := m0, t0
	slice := p.measure / slices
	for k := 0; k < slices; k++ {
		traced := p.trace && k%2 == 1
		ctl.tracing.Store(traced)
		ctl.slice.Store(int32(k))
		time.Sleep(slice)
		m, _ := sum()
		now := time.Now()
		dt := now.Sub(prevT).Seconds()
		iv.sliceTx = append(iv.sliceTx, float64(m.committed-prevM.committed)/dt)
		iv.sliceRows = append(iv.sliceRows, float64(m.rows-prevM.rows)/dt)
		iv.sliceTraced = append(iv.sliceTraced, traced)
		prevM, prevT = m, now
	}
	ctl.slice.Store(-1)
	ctl.tracing.Store(false)
	close(stopSampler)
	samplerDone.Wait()
	m1, a1 := sum()
	iv.elapsed = time.Since(t0)
	runtime.ReadMemStats(&iv.mem1)
	iv.after = snapEngine(db)
	iv.main, iv.aux = m1.sub(m0), a1.sub(a0)

	heaps := make([]float64, heapStops)
	for i := range heaps {
		if i > 0 {
			stop = start()
			time.Sleep(heapBurst)
		}
		stop()
		heaps[i] = float64(liveHeap())
	}
	iv.heap = median(heaps)
	stop = func() {}
	bind(clients, nil)
	return iv
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
