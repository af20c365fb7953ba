package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

const (
	// lrRows sizes the long_reader table past the 300 MiB L3 on every
	// scheme (heap_bytes_per_row times lrRows; see README.md).
	lrRows   = 2_000_000
	lrTenths = 10
	lrTenth  = lrRows / lrTenths
	// lrMaxAmount bounds one transfer.
	lrMaxAmount = 100
)

// lrModel is what the clients tallied: each row's net committed transfers,
// and the first report whose sum broke its tenth's invariant.
type lrModel struct {
	delta    []int64 // atomic adds by the updaters
	mu       sync.Mutex
	firstBad error
}

// tenthTotal is the invariant sum of tenth t: rows are loaded with value =
// key, and transfers move amounts inside one tenth.
func tenthTotal(t int) uint64 {
	lo := uint64(t) * lrTenth
	hi := lo + lrTenth - 1
	return (lo + hi) * lrTenth / 2
}

func runLongReader(p params) (*result, error) {
	res := &result{}
	clients := newClients(p)
	model := &lrModel{delta: make([]int64, lrRows)}
	base := liveHeap()
	t0 := time.Now()
	db, err := core.Open(core.Config{Scheme: p.sc.cc, LogSink: io.Discard, Durability: core.DurabilityAsync})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// The primary index is ordered so a report reads its tenth with one
	// range scan; see README.md for why reports do not use point lookups.
	tbl, err := workload.OrderedTable(db, lrRows)
	if err != nil {
		return nil, err
	}
	workload.Load(db, tbl, lrRows)
	res.setups = []float64{time.Since(t0).Seconds()}

	loop := func(c *client) {
		if c.id == 0 {
			lrReport(c, tbl, model)
		} else {
			lrTransfer(c, tbl, model)
		}
	}
	res.iv = runClients(p, db, clients, 1, loop)
	res.finish("long_reader", p, clients, nil)
	res.rowsPerS = float64(res.iv.aux.rows) / res.iv.elapsed.Seconds()
	res.heapPerRow = (res.iv.heap - float64(base)) / lrRows
	model.mu.Lock()
	res.checkErr = model.firstBad
	model.mu.Unlock()
	if res.checkErr == nil {
		res.checkErr = checkBalances(db, tbl, model.delta)
	}
	if p.selftest {
		res.corrupt("report sum off by one", checkReport(0, tenthTotal(0)+1))
		model.delta[lrRows/2]++
		res.corrupt("one balance shifted", checkBalances(db, tbl, model.delta))
	}
	return res, nil
}

// lrReport is the reporting query: a read-only snapshot summing one tenth
// of the table with one range scan. It begins with core.WithReadOnly, the
// engines' read-only snapshot (Snapshot Isolation on MV/L and MV/O,
// Repeatable Read on 1V). A report begun as an ordinary Snapshot Isolation
// transaction misses rows now and then on both MV schemes (README.md,
// fault 3), which would make a run's output check fail on some seeds only.
func lrReport(c *client, tbl *core.Table, m *lrModel) {
	t := c.rng.Intn(lrTenths)
	lo := uint64(t) * lrTenth
	var sum uint64
	err := c.do(&c.aux, func(tx *core.Tx) error {
		sum = 0
		return c.scanRange(tx, tbl, 0, lo, lo+lrTenth-1, func(r core.Row) bool {
			sum += workload.RowVal(r.Payload())
			return true
		})
	}, core.WithReadOnly())
	if err != nil {
		return
	}
	if bad := checkReport(t, sum); bad != nil {
		m.mu.Lock()
		if m.firstBad == nil {
			m.firstBad = bad
		}
		m.mu.Unlock()
	}
}

// lrTransfer moves an amount between two rows of one tenth at Read
// Committed, updating the rows in key order.
func lrTransfer(c *client, tbl *core.Table, m *lrModel) {
	lo := uint64(c.rng.Intn(lrTenths)) * lrTenth
	from := lo + uint64(c.rng.Intn(lrTenth))
	to := lo + uint64(c.rng.Intn(lrTenth-1))
	if to >= from {
		to++
	}
	amount := uint64(1 + c.rng.Intn(lrMaxAmount))
	if transfer(c, tbl, from, to, amount) == nil {
		atomic.AddInt64(&m.delta[from], -int64(amount))
		atomic.AddInt64(&m.delta[to], int64(amount))
	}
}

// transfer runs one two-row transfer as a client transaction. Balances are
// uint64 and may wrap; sums stay exact modulo 2^64.
func transfer(c *client, tbl *core.Table, from, to, amount uint64) error {
	first, second := from, to
	if first > second {
		first, second = second, first
	}
	return c.do(&c.main, func(tx *core.Tx) error {
		for _, k := range [2]uint64{first, second} {
			k := k
			d := amount
			if k == from {
				d = -amount
			}
			if _, err := c.updateWhere(tx, tbl, 0, k, nil, func(old []byte) []byte {
				return workload.Row(k, workload.RowVal(old)+d)
			}); err != nil {
				return err
			}
		}
		return nil
	}, core.WithIsolation(core.ReadCommitted))
}

// checkBalances verifies that the table holds each of the rows
// 0..len(delta)-1 exactly once, with its loaded value (its key) plus the net
// transfers the clients tallied. It reads at Read Committed, which holds no
// lock past each read on any scheme.
func checkBalances(db *core.Database, tbl *core.Table, delta []int64) error {
	tx := db.Begin(core.WithIsolation(core.ReadCommitted))
	defer func() { _ = tx.Abort() }() // read-only: nothing to commit
	err := scanBalances(tx, tbl, delta)
	if !errors.Is(err, core.ErrUnordered) {
		return err
	}
	for k := range delta {
		key := uint64(k)
		n := 0
		var got uint64
		if err := tx.Scan(tbl, 0, key, nil, func(r core.Row) bool {
			n++
			got = workload.RowVal(r.Payload())
			return true
		}); err != nil {
			return err
		}
		if want := key + uint64(delta[k]); n != 1 || got != want {
			return fmt.Errorf("row %d: found %d times, value %d, model says %d", key, n, got, want)
		}
	}
	return nil
}

// scanBalances is checkBalances on an ordered primary index: one full range
// scan delivers the rows in key order, so the n-th row delivered must be
// row n, and a missing, repeated or extra row breaks the sequence. It
// returns core.ErrUnordered on a hash index.
func scanBalances(tx *core.Tx, tbl *core.Table, delta []int64) error {
	n := 0
	var bad error
	err := tx.ScanRange(tbl, 0, 0, ^uint64(0), nil, func(r core.Row) bool {
		key := workload.RowKey(r.Payload())
		if n >= len(delta) || key != uint64(n) {
			bad = fmt.Errorf("row %d delivered where the model expects row %d of %d", key, n, len(delta))
			return false
		}
		if got, want := workload.RowVal(r.Payload()), key+uint64(delta[n]); got != want {
			bad = fmt.Errorf("row %d: value %d, model says %d", key, got, want)
			return false
		}
		n++
		return true
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if n != len(delta) {
		return fmt.Errorf("table holds %d rows, model says %d", n, len(delta))
	}
	return nil
}

// checkReport verifies one committed report's sum against its tenth's
// invariant total.
func checkReport(t int, sum uint64) error {
	if want := tenthTotal(t); sum != want {
		return fmt.Errorf("report over tenth %d summed %d, invariant total %d", t, sum, want)
	}
	return nil
}
