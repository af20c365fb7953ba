package main

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mv"
	"repro/internal/recovery"
	"repro/internal/ts"
	"repro/internal/wal"
)

// engineSnap is one reading of the engine's public counters.
type engineSnap struct {
	st   core.Stats
	mv   mv.Stats // zero on 1V
	fun  ts.FunnelStats
	log  wal.LogStats
	pins uint64
}

func snapEngine(db *core.Database) engineSnap {
	s := engineSnap{st: db.Stats(), fun: db.FunnelStats(), log: db.LogStats(), pins: db.PinOverflows()}
	if e := db.MV(); e != nil {
		s.mv = e.Stats()
	}
	return s
}

// result is everything one scheme produced: one instance (a database set up,
// measured and checked) as a workload returns it, or several merged.
type result struct {
	setups []float64 // seconds per set-up; a workload may set up more than once
	iv     interval  // the instance's measured interval
	ivs    []interval
	lat    []*reservoir // latency samples of the untraced slices

	// rowsFromSlices makes rows_per_s the median of the untraced slice rates
	// (tatp, hotspot); otherwise the workload sets rowsPerS itself.
	rowsFromSlices bool
	rowsPerS       float64
	heapPerRow     float64
	checkErr       error

	trace     traceSummary
	ckptStats ckpt.Stats
	rec       recovery.Stats
	recRates  []float64 // rows/s of each rebuild (restart)

	// corrupted lists, in a self-test run, each corruption of the output
	// model and what the check said about it (nil: the check missed it).
	corrupted []corruption

	// Filled by merge.
	total     tally     // main and aux transactions over the measured intervals
	quantiles []float64 // p50, p90, p99, p99.9 in microseconds
	samples   uint64    // transactions behind the quantiles
}

type corruption struct {
	what string
	err  error
}

func (r *result) corrupt(what string, err error) {
	r.corrupted = append(r.corrupted, corruption{what, err})
}

// finish collects what every workload derives the same way from its
// clients. In a traced run it also writes the kept spans of the clients and
// of coord, the coordinator's tracer (checkpoint and recovery spans), under
// traceDir.
func (r *result) finish(name string, p params, clients []*client, coord *tracer) {
	// The samples are copied out so the clients, and through them the
	// database, can be collected before the next instance is set up.
	for k, traced := range r.iv.sliceTraced {
		for _, c := range clients {
			if !traced {
				lat := c.lat[k]
				r.lat = append(r.lat, &lat)
			}
		}
	}
	trs := []*tracer{coord}
	for _, c := range clients {
		trs = append(trs, c.tr)
	}
	r.trace = summarize(trs)
	if p.trace {
		if err := writeSpans(traceDir, name+"-"+p.sc.tag, trs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
}

// merge combines the instances of one scheme. Rates are medians over every
// slice of every instance; counts are sums; heap and set-up figures are
// medians over instances and set-ups.
func merge(rs []*result) *result {
	m := &result{rowsFromSlices: rs[0].rowsFromSlices}
	var heaps, rows []float64
	for _, r := range rs {
		m.setups = append(m.setups, r.setups...)
		m.ivs = append(m.ivs, r.iv)
		m.lat = append(m.lat, r.lat...)
		m.total = m.total.add(r.iv.main).add(r.iv.aux)
		heaps = append(heaps, r.heapPerRow)
		rows = append(rows, r.rowsPerS)
		if m.checkErr == nil {
			m.checkErr = r.checkErr
		}
		m.corrupted = append(m.corrupted, r.corrupted...)
		m.recRates = append(m.recRates, r.recRates...)
		m.ckptStats, m.rec = r.ckptStats, r.rec
		for i := range m.trace.self {
			m.trace.self[i] += r.trace.self[i]
			m.trace.calls[i] += r.trace.calls[i]
		}
		m.trace.retryNs += r.trace.retryNs
		m.trace.committed += r.trace.committed
	}
	m.heapPerRow = median(heaps)
	m.rowsPerS = median(rows)
	if m.rowsFromSlices {
		m.rowsPerS = m.sliceMedian(func(iv *interval) []float64 { return iv.sliceRows }, false)
	}
	// Clients run closed-loop, so a stall of the machine delays one
	// transaction per client rather than a share of the samples.
	m.quantiles, m.samples = latencyQuantiles(m.lat, 0.50, 0.90, 0.99, 0.999)
	return m
}

// sliceMedian is the median of a per-slice series over every instance,
// taken from the slices with tracing in the given state.
func (r *result) sliceMedian(series func(*interval) []float64, traced bool) float64 {
	var sel []float64
	for i := range r.ivs {
		iv := &r.ivs[i]
		for k, x := range series(iv) {
			if iv.sliceTraced[k] == traced {
				sel = append(sel, x)
			}
		}
	}
	return median(sel)
}

func sliceTx(iv *interval) []float64 { return iv.sliceTx }

// delta sums a counter's growth over the measured intervals.
func (r *result) delta(f func(*engineSnap) uint64) uint64 {
	var d uint64
	for i := range r.ivs {
		d += f(&r.ivs[i].after) - f(&r.ivs[i].before)
	}
	return d
}

// memDelta sums a runtime.MemStats counter's growth over the intervals.
func (r *result) memDelta(f func(*runtime.MemStats) uint64) uint64 {
	var d uint64
	for i := range r.ivs {
		d += f(&r.ivs[i].mem1) - f(&r.ivs[i].mem0)
	}
	return d
}

func (r *result) elapsed() float64 {
	var s float64
	for i := range r.ivs {
		s += r.ivs[i].elapsed.Seconds()
	}
	return s
}

// endToEnd returns the end-to-end metrics, without the scheme suffix.
func (r *result) endToEnd() map[string]metric {
	return map[string]metric{
		"tx_per_s":           {r.sliceMedian(sliceTx, false), "1/s"},
		"p50_us":             {r.quantiles[0], "us"},
		"rows_per_s":         {r.rowsPerS, "rows/s"},
		"heap_bytes_per_row": {r.heapPerRow, "B/row"},
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics returns the per-layer metrics that apply to the scheme,
// without the scheme suffix.
func (r *result) layerMetrics(sc scheme) map[string]metric {
	tx := r.total.committed
	d := r.delta
	perTx := func(f func(*engineSnap) uint64) metric { return metric{ratio(d(f), tx), "1/tx"} }
	mem := func(f func(*runtime.MemStats) uint64) uint64 { return r.memDelta(f) }
	tr := r.trace
	coreSelf := tr.self[spanBegin] + tr.self[spanRead] + tr.self[spanWrite] + tr.self[spanCommit] + tr.self[spanAbort]
	untraced := r.sliceMedian(sliceTx, false)
	traced := r.sliceMedian(sliceTx, true)
	overhead := 0.0
	if untraced > 0 {
		overhead = 1 - traced/untraced
	}
	var pending []float64
	for i := range r.ivs {
		pending = append(pending, r.ivs[i].pending...)
	}
	m := map[string]metric{
		"client.p99_us":              {r.quantiles[2], "us"},
		"core.begin_ns":              {tr.perCall(spanBegin), "ns"},
		"core.read_ns":               {tr.perCall(spanRead), "ns"},
		"core.write_ns":              {tr.perCall(spanWrite), "ns"},
		"core.commit_ns":             {tr.perCall(spanCommit), "ns"},
		"core.retry_ns":              {tr.perTx(tr.retryNs), "ns/tx"},
		"trace.core_self_ns_per_tx":  {tr.perTx(coreSelf), "ns/tx"},
		"trace.bench_self_ns_per_tx": {tr.perTx(tr.self[spanTx] + tr.self[spanAttempt]), "ns/tx"},
		"trace.tx_per_s":             {traced, "1/s"},
		"trace.overhead":             {overhead, "ratio"},
		"ts.draws_per_tx":            perTx(func(s *engineSnap) uint64 { return s.fun.Draws }),
		"ts.physical_per_tx":         perTx(func(s *engineSnap) uint64 { return s.fun.Physical }),
		"wal.bytes_per_tx":           {ratio(d(func(s *engineSnap) uint64 { return s.log.Bytes }), tx), "B/tx"},
		"wal.records_per_batch": {ratio(d(func(s *engineSnap) uint64 { return s.log.Flushed }),
			d(func(s *engineSnap) uint64 { return s.log.Batches })), "records"},
		"gc.pin_overflows":           {float64(d(func(s *engineSnap) uint64 { return s.pins })), "count"},
		"runtime.allocs_per_tx":      {ratio(mem(func(m *runtime.MemStats) uint64 { return m.Mallocs }), tx), "1/tx"},
		"runtime.alloc_bytes_per_tx": {ratio(mem(func(m *runtime.MemStats) uint64 { return m.TotalAlloc }), tx), "B/tx"},
		"runtime.gc_cycles_per_s":    {float64(mem(func(m *runtime.MemStats) uint64 { return uint64(m.NumGC) })) / r.elapsed(), "1/s"},
		"ckpt.run_ms":                {tr.perCall(spanCkpt) / 1e6, "ms"},
		"ckpt.bytes":                 {float64(r.ckptStats.Bytes), "B"},
		"recovery.elapsed_ms":        {tr.perCall(spanRecover) / 1e6, "ms"},
		"recovery.rows_restored":     {float64(r.rec.RowsRestored), "rows"},
		"recovery.tail_records":      {float64(r.rec.TailRecords), "records"},
	}
	if sc.cc == core.SingleVersion {
		m["sv.lock_timeouts_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.st.LockTimeouts })
		return m
	}
	m["mv.write_conflicts_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.WriteConflicts })
	m["mv.validation_fails_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.ValidationFails })
	m["mv.lock_failures_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.LockFailures })
	m["mv.cascading_aborts_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.CascadingAborts })
	m["mv.speculative_reads_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.SpeculativeReads })
	m["mv.fast_commits_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.FastCommits })
	m["gc.versions_retired_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.VersionsRetired })
	m["gc.versions_reclaimed_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.VersionsReclaims })
	m["gc.pending_versions"] = metric{median(pending), "versions"}
	m["storage.versions_recycled_ratio"] = metric{ratio(d(func(s *engineSnap) uint64 { return s.mv.VersionsRecycled }), r.total.writes), "ratio"}
	m["storage.tx_recycled_ratio"] = metric{ratio(d(func(s *engineSnap) uint64 { return s.mv.TxRecycled }), r.total.begins), "ratio"}
	if sc.cc == core.MVPessimistic {
		m["deadlock.victims_per_tx"] = perTx(func(s *engineSnap) uint64 { return s.mv.DeadlockVictims })
	}
	return m
}

// print writes the scheme's accounting and, in a traced run, its per-layer
// self-time summary.
func (r *result) print(w io.Writer, name, tag string) {
	check := "ok"
	if r.checkErr != nil {
		check = "FAILED: " + r.checkErr.Error()
	}
	var m, a tally
	for _, iv := range r.ivs {
		m, a = m.add(iv.main), a.add(iv.aux)
	}
	fmt.Fprintf(w, "# %s %s: %d instance(s), setup %.4fs (median of %d), measured %.3fs, check %s\n", name, tag,
		len(r.ivs), median(append([]float64(nil), r.setups...)), len(r.setups), r.elapsed(), check)
	fmt.Fprintf(w, "#   main: attempted %d committed %d retried %d expected %d failed %d dup_accepted %d; latency samples %d\n",
		m.attempted, m.committed, m.retried, m.expected, m.failed, m.dupAccepted, r.samples)
	fmt.Fprintf(w, "#   latency p50/p90/p99/p99.9 us: %.1f\n", r.quantiles)
	fmt.Fprintf(w, "#   slice tx/s:")
	for _, iv := range r.ivs {
		for _, x := range iv.sliceTx {
			fmt.Fprintf(w, " %.0f", x)
		}
	}
	fmt.Fprintf(w, "; lock timeouts %d; heap/row %.1f\n", r.delta(func(s *engineSnap) uint64 { return s.st.LockTimeouts }), r.heapPerRow)
	if len(r.recRates) > 0 {
		fmt.Fprintf(w, "#   recovery rows/s: %.0f\n", r.recRates)
	}
	if a.attempted > 0 {
		fmt.Fprintf(w, "#   aux:  attempted %d committed %d retried %d expected %d failed %d; rows %d\n",
			a.attempted, a.committed, a.retried, a.expected, a.failed, a.rows)
	}
	if r.trace.committed == 0 && r.trace.calls[spanCkpt] == 0 && r.trace.calls[spanRecover] == 0 {
		return
	}
	fmt.Fprintf(w, "#   self time per span (traced transactions %d):\n", r.trace.committed)
	for n := spanName(0); n < nSpanNames; n++ {
		if r.trace.calls[n] == 0 {
			continue
		}
		fmt.Fprintf(w, "#     %-17s calls %9d  self %9.1f ms  %9.0f ns/call\n",
			spanLabels[n], r.trace.calls[n], float64(r.trace.self[n])/1e6, r.trace.perCall(n))
	}
}
