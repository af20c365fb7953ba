package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tatp"
)

// tatpSubscribers sizes the TATP population: about 490k rows over four
// tables, tens of MiB of engine heap, well past the 4 MiB L2.
const tatpSubscribers = 50_000

// Payload offsets of the TATP rows (see internal/tatp's schema comment).
const (
	offType   = 8  // ai_type, sf_type or call-forwarding sf_type
	offActive = 9  // special facility is_active
	offDataA  = 10 // special facility data_a
	offStart  = 9  // call-forwarding start_time
	offEnd    = 10 // call-forwarding end_time
	cfSize    = 19
)

func sidOf(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// tatpModel is what the clients tallied: committed call-forwarding inserts
// and the rows committed DeleteWhere calls reported deleted.
type tatpModel struct {
	loadedCF uint64
	inserts  atomic.Uint64
	deletes  atomic.Uint64
}

type tatpRun struct {
	d     *tatp.DB
	model *tatpModel
	// readBack makes INSERT_CALL_FORWARDING read its key back: on 1V the
	// engine does not enforce primary-key uniqueness, so a second row with
	// the key is found here and the transaction aborted (errRowExists).
	readBack bool
}

func openTATP(p params, sink io.Writer) (*tatpRun, *core.Database, error) {
	db, err := core.Open(core.Config{Scheme: p.sc.cc, LogSink: sink, Durability: core.DurabilityAsync})
	if err != nil {
		return nil, nil, err
	}
	d, err := tatp.CreateTables(db, tatpSubscribers)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	d.Load(p.seed)
	return &tatpRun{d: d, model: &tatpModel{}, readBack: p.sc.cc == core.SingleVersion}, db, nil
}

func runTATP(p params) (*result, error) {
	res := &result{}
	clients := newClients(p)
	base := liveHeap()
	t0 := time.Now()
	w, db, err := openTATP(p, io.Discard)
	if err != nil {
		return nil, err
	}
	res.setups = []float64{time.Since(t0).Seconds()}
	defer db.Close()

	// Access-info and special-facility rows do not change during the run.
	fixed, err := w.countFixed()
	if err != nil {
		return nil, err
	}
	if w.model.loadedCF, err = w.countCF(); err != nil {
		return nil, err
	}

	res.iv = runClients(p, db, clients, 1, w.step)
	res.finish("tatp", p, clients, nil)
	res.rowsFromSlices = true
	res.checkErr = w.check()
	rows := fixed + w.model.loadedCF + w.model.inserts.Load() - w.model.deletes.Load()
	res.heapPerRow = (res.iv.heap - float64(base)) / float64(rows)
	if p.selftest {
		w.model.inserts.Add(1)
		res.corrupt("one phantom insert", w.check())
	}
	return res, nil
}

// countFixed returns the subscriber, access-info and special-facility rows,
// the last two counted through their s_id indexes.
func (w *tatpRun) countFixed() (uint64, error) {
	d := w.d
	tx := d.Database.Begin(core.WithIsolation(core.ReadCommitted))
	defer func() { _ = tx.Abort() }() // read-only: nothing to commit
	n := d.Subscribers
	for s := uint64(1); s <= d.Subscribers; s++ {
		for _, t := range []*core.Table{d.AccessInfo, d.SpecialFac} {
			// AIBySID and SFBySID are both index 1.
			if err := tx.Scan(t, tatp.AIBySID, s, func(p []byte) bool { return sidOf(p) == s },
				func(core.Row) bool { n++; return true }); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

// step draws one transaction from the TATP mix (35/10/35/2/14/2/2) and runs
// it at Read Committed. Every input is drawn before the transaction starts,
// so a retry repeats the same operation.
func (w *tatpRun) step(c *client) {
	d := w.d
	rng := c.rng
	s := d.Dist.Next(rng)%d.Subscribers + 1
	rc := core.WithIsolation(core.ReadCommitted)
	x := rng.Intn(100)
	switch {
	case x < 35: // GET_SUBSCRIBER_DATA
		c.do(&c.main, func(tx *core.Tx) error {
			return c.scan(tx, d.Subscriber, tatp.SubBySID, s,
				func(p []byte) bool { return sidOf(p) == s },
				func(core.Row) bool { return false })
		}, rc)
	case x < 45: // GET_NEW_DESTINATION
		sf := byte(1 + rng.Intn(4))
		start := byte(8 * rng.Intn(3))
		c.do(&c.main, func(tx *core.Tx) error {
			active := false
			err := c.scan(tx, d.SpecialFac, tatp.SFByComposite, s<<2|uint64(sf-1),
				func(p []byte) bool { return sidOf(p) == s && p[offType] == sf },
				func(r core.Row) bool { active = r.Payload()[offActive] == 1; return false })
			if err != nil || !active {
				return err
			}
			return c.scan(tx, d.CallFwd, tatp.CFBySIDSF, s<<2|uint64(sf-1),
				func(p []byte) bool {
					return sidOf(p) == s && p[offType] == sf && p[offStart] <= start && start < p[offEnd]
				},
				func(core.Row) bool { return true })
		}, rc)
	case x < 80: // GET_ACCESS_DATA
		ai := byte(1 + rng.Intn(4))
		c.do(&c.main, func(tx *core.Tx) error {
			return c.scan(tx, d.AccessInfo, tatp.AIByComposite, s<<2|uint64(ai-1),
				func(p []byte) bool { return sidOf(p) == s && p[offType] == ai },
				func(core.Row) bool { return false })
		}, rc)
	case x < 82: // UPDATE_SUBSCRIBER_DATA
		sf := byte(1 + rng.Intn(4))
		bit := byte(rng.Intn(2))
		dataA := byte(rng.Intn(256))
		c.do(&c.main, func(tx *core.Tx) error {
			if _, err := c.updateWhere(tx, d.Subscriber, tatp.SubBySID, s,
				func(p []byte) bool { return sidOf(p) == s },
				func(old []byte) []byte {
					nw := append([]byte(nil), old...)
					nw[16] = nw[16]&^1 | bit
					return nw
				}); err != nil {
				return err
			}
			_, err := c.updateWhere(tx, d.SpecialFac, tatp.SFByComposite, s<<2|uint64(sf-1),
				func(p []byte) bool { return sidOf(p) == s && p[offType] == sf },
				func(old []byte) []byte {
					nw := append([]byte(nil), old...)
					nw[offDataA] = dataA
					return nw
				})
			return err
		}, rc)
	case x < 96: // UPDATE_LOCATION
		loc := rng.Uint32()
		c.do(&c.main, func(tx *core.Tx) error {
			_, err := c.updateWhere(tx, d.Subscriber, tatp.SubByNbr, tatp.SubNbr(s),
				func(p []byte) bool { return sidOf(p) == s },
				func(old []byte) []byte {
					nw := append([]byte(nil), old...)
					binary.LittleEndian.PutUint32(nw[37:], loc)
					return nw
				})
			return err
		}, rc)
	case x < 98: // INSERT_CALL_FORWARDING
		pick := rng.Intn(4)
		start := byte(8 * rng.Intn(3))
		end := start + byte(1+rng.Intn(8))
		numberx := rng.Uint64()
		inserted := false
		err := c.do(&c.main, func(tx *core.Tx) error {
			inserted = false
			return w.insertCF(c, tx, s, pick, start, end, numberx, &inserted)
		}, rc)
		if err == nil && inserted {
			w.model.inserts.Add(1)
		}
	default: // DELETE_CALL_FORWARDING
		sf := byte(1 + rng.Intn(4))
		start := byte(8 * rng.Intn(3))
		var deleted int
		err := c.do(&c.main, func(tx *core.Tx) error {
			deleted = 0
			err := c.scan(tx, d.Subscriber, tatp.SubByNbr, tatp.SubNbr(s),
				func(p []byte) bool { return sidOf(p) == s },
				func(core.Row) bool { return false })
			if err != nil {
				return err
			}
			deleted, err = c.deleteWhere(tx, d.CallFwd, tatp.CFByComposite, cfKey(s, sf, start),
				func(p []byte) bool { return sidOf(p) == s && p[offType] == sf && p[offStart] == start })
			return err
		}, rc)
		if err == nil {
			w.model.deletes.Add(uint64(deleted))
		}
	}
}

func cfKey(s uint64, sf, start byte) uint64 {
	return s<<4 | uint64(sf-1)<<2 | uint64(start/8)
}

// insertCF is INSERT_CALL_FORWARDING as the TATP specification writes it:
// read the subscriber and its special-facility types, then insert without
// reading the key first; an existing key is the database's to refuse.
func (w *tatpRun) insertCF(c *client, tx *core.Tx, s uint64, pick int, start, end byte, numberx uint64, inserted *bool) error {
	d := w.d
	err := c.scan(tx, d.Subscriber, tatp.SubByNbr, tatp.SubNbr(s),
		func(p []byte) bool { return sidOf(p) == s },
		func(core.Row) bool { return false })
	if err != nil {
		return err
	}
	var types [4]byte
	n := 0
	err = c.scan(tx, d.SpecialFac, tatp.SFBySID, s,
		func(p []byte) bool { return sidOf(p) == s },
		func(r core.Row) bool {
			if n < len(types) {
				types[n] = r.Payload()[offType]
				n++
			}
			return true
		})
	if err != nil || n == 0 {
		return err
	}
	sf := types[pick%n]
	row := make([]byte, cfSize)
	binary.LittleEndian.PutUint64(row, s)
	row[offType], row[offStart], row[offEnd] = sf, start, end
	binary.LittleEndian.PutUint64(row[11:], numberx)
	if err := c.insert(tx, d.CallFwd, row); err != nil {
		return err
	}
	if w.readBack {
		found := 0
		err := c.scan(tx, d.CallFwd, tatp.CFByComposite, cfKey(s, sf, start),
			func(p []byte) bool { return sidOf(p) == s && p[offType] == sf && p[offStart] == start },
			func(core.Row) bool { found++; return true })
		if err != nil {
			return err
		}
		if found > 1 {
			return errRowExists
		}
	}
	*inserted = true
	return nil
}

// countCF counts the call-forwarding rows through the (s_id, sf_type)
// index and checks that no two of them share a primary key (s_id, sf_type,
// start_time). It reads at Read Committed, which holds no lock past each
// read on any scheme.
func (w *tatpRun) countCF() (uint64, error) {
	d := w.d
	tx := d.Database.Begin(core.WithIsolation(core.ReadCommitted))
	defer func() { _ = tx.Abort() }() // read-only: nothing to commit
	var n uint64
	for s := uint64(1); s <= d.Subscribers; s++ {
		for sf := byte(1); sf <= 4; sf++ {
			var starts [256]bool
			var dup error
			err := tx.Scan(d.CallFwd, tatp.CFBySIDSF, s<<2|uint64(sf-1),
				func(p []byte) bool { return sidOf(p) == s && p[offType] == sf },
				func(r core.Row) bool {
					st := r.Payload()[offStart]
					if starts[st] {
						dup = fmt.Errorf("two call-forwarding rows with key (s_id %d, sf_type %d, start %d)", s, sf, st)
					}
					starts[st] = true
					n++
					return true
				})
			if err != nil {
				return 0, err
			}
			if dup != nil {
				return 0, dup
			}
		}
	}
	return n, nil
}

// check verifies the TATP output model after the clients stopped:
//   - every subscriber is found exactly once through each of its indexes;
//   - the call-forwarding rows number the load count plus committed inserts
//     minus the rows committed deletes reported;
//   - no two call-forwarding rows share a primary key.
func (w *tatpRun) check() error {
	d := w.d
	tx := d.Database.Begin(core.WithIsolation(core.ReadCommitted))
	defer func() { _ = tx.Abort() }() // read-only: nothing to commit
	for s := uint64(1); s <= d.Subscribers; s++ {
		for _, ix := range []struct {
			ord int
			key uint64
		}{{tatp.SubBySID, s}, {tatp.SubByNbr, tatp.SubNbr(s)}} {
			n := 0
			if err := tx.Scan(d.Subscriber, ix.ord, ix.key, func(p []byte) bool { return sidOf(p) == s },
				func(core.Row) bool { n++; return true }); err != nil {
				return err
			}
			if n != 1 {
				return fmt.Errorf("subscriber %d found %d times through index %d", s, n, ix.ord)
			}
		}
	}
	n, err := w.countCF()
	if err != nil {
		return err
	}
	want := w.model.loadedCF + w.model.inserts.Load() - w.model.deletes.Load()
	if n != want {
		return fmt.Errorf("call forwarding holds %d rows, model says %d (loaded %d + inserted %d - deleted %d)",
			n, want, w.model.loadedCF, w.model.inserts.Load(), w.model.deletes.Load())
	}
	return nil
}
