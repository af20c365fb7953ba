package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

const (
	// hotRows sizes the hot table so that, with two clients, an access meets
	// the other client's in-flight writes as often as in the paper's 24
	// clients on 1,000 rows: 23 other clients x 2 writes / 1,000 rows = 4.6%
	// per access, and 1 other client x 2 writes / 43 rows = 4.65%.
	hotRows   = 43
	hotReads  = 10
	hotWrites = 2
	// hotSetups is how many times a run opens and loads the hot table; the
	// set-up takes a fraction of a millisecond, too short to time once.
	hotSetups = 15
	// hotHeapStops is how many times the clients stop for a heap reading
	// (see runClients): the transactions parked at a stop outweigh 43 rows.
	hotHeapStops = 9
)

// hotModel holds each client's committed increments per row.
type hotModel [][hotRows]uint64

func runHotspot(p params) (*result, error) {
	res := &result{}
	clients := newClients(p)
	model := make(hotModel, p.clients)
	base := liveHeap()
	var db *core.Database
	var tbl *core.Table
	for i := 0; i < hotSetups; i++ {
		if db != nil {
			db.Close()
		}
		t0 := time.Now()
		var err error
		db, err = core.Open(core.Config{Scheme: p.sc.cc, LogSink: io.Discard, Durability: core.DurabilityAsync})
		if err != nil {
			return nil, err
		}
		if tbl, err = workload.Table(db, hotRows); err != nil {
			db.Close()
			return nil, err
		}
		workload.Load(db, tbl, hotRows)
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer db.Close()

	perms := make([][hotRows]uint64, p.clients)
	for i := range perms {
		for k := range perms[i] {
			perms[i][k] = uint64(k)
		}
	}
	rc := core.WithIsolation(core.ReadCommitted)
	loop := func(c *client) {
		// Twelve distinct rows, a partial shuffle of the client's
		// permutation: the first ten are read, the last two incremented in
		// key order.
		keys := &perms[c.id]
		for i := 0; i < hotReads+hotWrites; i++ {
			j := i + c.rng.Intn(hotRows-i)
			keys[i], keys[j] = keys[j], keys[i]
		}
		writes := [hotWrites]uint64{keys[hotReads], keys[hotReads+1]}
		if writes[0] > writes[1] {
			writes[0], writes[1] = writes[1], writes[0]
		}
		err := c.do(&c.main, func(tx *core.Tx) error {
			for _, k := range keys[:hotReads] {
				if err := c.scan(tx, tbl, 0, k, nil, func(core.Row) bool { return false }); err != nil {
					return err
				}
			}
			for _, k := range writes {
				k := k
				if _, err := c.updateWhere(tx, tbl, 0, k, nil, func(old []byte) []byte {
					return workload.Row(k, workload.RowVal(old)+1)
				}); err != nil {
					return err
				}
			}
			return nil
		}, rc)
		if err == nil {
			for _, k := range writes {
				model[c.id][k]++
			}
		}
	}
	res.iv = runClients(p, db, clients, hotHeapStops, loop)
	res.finish("hotspot", p, clients, nil)
	res.rowsFromSlices = true
	res.heapPerRow = (res.iv.heap - float64(base)) / hotRows
	res.checkErr = checkHotspot(db, tbl, model)
	if p.selftest {
		res.corrupt("one tallied increment dropped", dropIncrement(model, func() error { return checkHotspot(db, tbl, model) }))
	}
	return res, nil
}

// dropIncrement removes one committed increment from the model and runs
// check on it.
func dropIncrement(model hotModel, check func() error) error {
	for i := range model {
		for k := range model[i] {
			if model[i][k] > 0 {
				model[i][k]--
				return check()
			}
		}
	}
	return nil
}

// checkHotspot verifies that every row holds its loaded value (its key) plus
// the increments the clients tallied for it, and that every row exists once.
func checkHotspot(db *core.Database, tbl *core.Table, model hotModel) error {
	tx := db.Begin(core.WithIsolation(core.ReadCommitted))
	defer func() { _ = tx.Abort() }() // read-only: nothing to commit
	for k := uint64(0); k < hotRows; k++ {
		want := k
		for _, m := range model {
			want += m[k]
		}
		n := 0
		var got uint64
		if err := tx.Scan(tbl, 0, k, nil, func(r core.Row) bool {
			n++
			got = workload.RowVal(r.Payload())
			return true
		}); err != nil {
			return err
		}
		if n != 1 || got != want {
			return fmt.Errorf("row %d: found %d times, value %d, model says %d", k, n, got, want)
		}
	}
	return nil
}
