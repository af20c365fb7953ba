package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/workload"
)

const (
	// restartRows sizes the restart table. Its primary index is a hash
	// index, whose 1V checkpoint capture takes time quadratic in the bucket
	// count (README.md); at this size that capture takes about 2.5 s.
	restartRows = 50_000
	// restartSetups is how many times a run sets up (opens a store, loads,
	// checkpoints); the database of the last set-up is measured.
	restartSetups = 3
	// recoverRuns is how many times a run rebuilds the database from the
	// store; rows_per_s is the median rate.
	recoverRuns = 25
)

// restartDB is one set-up: a database logging into a file-backed store,
// loaded and checkpointed.
type restartDB struct {
	dir   string
	store *ckpt.Store
	db    *core.Database
	tbl   *core.Table
	ckpt  ckpt.Stats
}

func openRestart(p params, dir string, coord *tracer) (*restartDB, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	r := &restartDB{dir: dir, store: store}
	r.db, err = core.Open(core.Config{Scheme: p.sc.cc, LogSink: store, Durability: core.DurabilityFlush})
	if err != nil {
		store.Close()
		return nil, err
	}
	if r.tbl, err = workload.Table(r.db, restartRows); err != nil {
		r.close()
		return nil, err
	}
	workload.Load(r.db, r.tbl, restartRows)
	cp := ckpt.New(r.db, store, []ckpt.TableSpec{{Table: r.tbl, Hi: restartRows - 1}}, ckpt.Options{})
	var s int32
	if coord != nil {
		s = coord.open(spanCkpt)
	}
	r.ckpt, err = cp.Run()
	if coord != nil {
		coord.close(s)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return r, nil
}

// close closes the database, which flushes its log, then the store.
func (r *restartDB) close() error {
	err := r.db.Close()
	if serr := r.store.Close(); err == nil {
		err = serr
	}
	return err
}

func runRestart(p params) (*result, error) {
	res := &result{}
	clients := newClients(p)
	delta := make([]int64, restartRows)
	var coord *tracer
	if p.trace {
		coord = newTracer()
	}

	var r *restartDB
	for i := 0; i < restartSetups; i++ {
		if r != nil {
			r.close()
			os.RemoveAll(r.dir)
		}
		dir := filepath.Join(dataDir, fmt.Sprintf("restart-%d-%s-%d", os.Getpid(), p.sc.tag, i))
		t0 := time.Now()
		var err error
		if r, err = openRestart(p, dir, coord); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(r.dir)
	res.ckptStats = r.ckpt

	// Measured interval: transfers acknowledged at DurabilityFlush.
	tbl := r.tbl
	loop := func(c *client) {
		from := uint64(c.rng.Intn(restartRows))
		to := uint64(c.rng.Intn(restartRows - 1))
		if to >= from {
			to++
		}
		amount := uint64(1 + c.rng.Intn(lrMaxAmount))
		if transfer(c, tbl, from, to, amount) == nil {
			atomic.AddInt64(&delta[from], -int64(amount))
			atomic.AddInt64(&delta[to], int64(amount))
		}
	}
	res.iv = runClients(p, r.db, clients, 1, loop)

	// Close, then rebuild from the store alone, recoverRuns times, each into
	// a fresh database; the heap is measured after the last rebuild.
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	bind(clients, nil)
	for i := 0; i < recoverRuns; i++ {
		base := liveHeap()
		last := i == recoverRuns-1
		err := recoverOnce(p, r.dir, coord, func(rdb *core.Database, rtbl *core.Table, st recovery.Stats, elapsed time.Duration) {
			res.recRates = append(res.recRates, restartRows/elapsed.Seconds())
			res.rec = st
			if err := checkBalances(rdb, rtbl, delta); err != nil && res.checkErr == nil {
				res.checkErr = err
			}
			if !last {
				return
			}
			res.heapPerRow = float64(liveHeap()-base) / restartRows
			if p.selftest {
				delta[restartRows/2]++
				res.corrupt("one balance shifted", checkBalances(rdb, rtbl, delta))
			}
		})
		if err != nil {
			return nil, err
		}
	}
	res.rowsPerS = median(append([]float64(nil), res.recRates...))
	res.finish("restart", p, clients, coord)
	return res, nil
}

// recoverOnce rebuilds a database of the scheme from the store in dir with
// recovery.Recover, hands it to inspect, and closes it.
func recoverOnce(p params, dir string, coord *tracer, inspect func(*core.Database, *core.Table, recovery.Stats, time.Duration)) error {
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		return err
	}
	defer store.Close() // only read: recovery writes nothing to the store
	rdb, err := core.Open(core.Config{Scheme: p.sc.cc})
	if err != nil {
		return err
	}
	defer rdb.Close()
	rtbl, err := workload.Table(rdb, restartRows)
	if err != nil {
		return err
	}
	var s int32
	if coord != nil {
		s = coord.open(spanRecover)
	}
	t0 := time.Now()
	st, err := recovery.Recover(rdb, recovery.TableSet{rtbl.Name(): rtbl}, store, recovery.Options{Workers: runtime.NumCPU()})
	elapsed := time.Since(t0)
	if coord != nil {
		coord.close(s)
	}
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	inspect(rdb, rtbl, st, elapsed)
	return nil
}
