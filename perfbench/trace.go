package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names a span: one call the benchmark makes into a layer, or one
// of the client-side spans that parent them.
type spanName uint8

const (
	spanTx      spanName = iota // one client transaction, retries included
	spanAttempt                 // one attempt, Begin to Commit or Abort
	spanBegin
	spanRead
	spanWrite
	spanCommit
	spanAbort
	spanCkpt    // ckpt.Checkpointer.Run
	spanRecover // recovery.Recover
	nSpanNames
)

var spanLabels = [nSpanNames]string{
	"client.tx", "client.attempt", "core.begin", "core.read", "core.write",
	"core.commit", "core.abort", "ckpt.run", "recovery.recover",
}

// span is one recorded interval. Spans of one client transaction share tx;
// parent indexes the enclosing span in the same buffer (-1 for a root).
type span struct {
	start, end int64 // nanoseconds since the tracer's epoch
	tx         uint64
	parent     int32
	name       spanName
	retried    bool // attempts only: the attempt aborted and was retried
}

const (
	// traceBuf is the span count at which a tracer reduces its buffer at
	// the next client-transaction boundary (a buffer never splits a
	// transaction's tree).
	traceBuf = 1 << 16
	// keepSpans is how many spans per tracer are kept for writing out.
	keepSpans = 4096
)

// tracer records spans for one goroutine, in memory, and reduces them to
// self time per span name: a span's duration minus the part its children
// cover.
type tracer struct {
	epoch     time.Time
	buf       []span
	stack     []int32
	tx        uint64
	self      [nSpanNames]int64
	calls     [nSpanNames]int64
	retryNs   int64 // duration of attempts that aborted and were retried
	committed int64 // traced client transactions that committed
	kept      []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, 0, traceBuf)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextTx starts a new client transaction; the buffer is reduced here, where
// no span is open.
func (t *tracer) nextTx() {
	t.tx++
	if len(t.buf) >= traceBuf {
		t.reduce()
	}
}

func (t *tracer) open(n spanName) int32 {
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	i := int32(len(t.buf))
	t.buf = append(t.buf, span{start: t.now(), tx: t.tx, parent: parent, name: n})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) close(i int32) {
	t.buf[i].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) closeAttempt(i int32, retried bool) {
	t.buf[i].retried = retried
	t.close(i)
}

// reduce folds the buffered spans into the self-time totals and keeps the
// first keepSpans of the first buffer for writing out.
func (t *tracer) reduce() {
	for i := range t.buf {
		s := &t.buf[i]
		d := s.end - s.start
		t.self[s.name] += d
		t.calls[s.name]++
		if s.parent >= 0 {
			t.self[t.buf[s.parent].name] -= d
		}
		if s.name == spanAttempt && s.retried {
			t.retryNs += d
		}
	}
	if t.kept == nil {
		// Parent indexes stay valid: the kept spans are a prefix of the
		// first buffer, and a parent precedes its children.
		t.kept = append([]span{}, t.buf[:min(keepSpans, len(t.buf))]...)
	}
	t.buf = t.buf[:0]
}

// traceSummary is the reduction of every tracer of one scheme's run.
type traceSummary struct {
	self      [nSpanNames]int64
	calls     [nSpanNames]int64
	retryNs   int64
	committed int64
}

func summarize(ts []*tracer) traceSummary {
	var s traceSummary
	for _, t := range ts {
		if t == nil {
			continue
		}
		t.reduce()
		for i := range s.self {
			s.self[i] += t.self[i]
			s.calls[i] += t.calls[i]
		}
		s.retryNs += t.retryNs
		s.committed += t.committed
	}
	return s
}

// perCall is a span name's mean self time in nanoseconds.
func (s traceSummary) perCall(n spanName) float64 {
	if s.calls[n] == 0 {
		return 0
	}
	return float64(s.self[n]) / float64(s.calls[n])
}

// perTx divides a total in nanoseconds by the traced committed transactions.
func (s traceSummary) perTx(ns int64) float64 {
	if s.committed == 0 {
		return 0
	}
	return float64(ns) / float64(s.committed)
}

// writeSpans writes the kept spans of every tracer as tab-separated lines
// (tracer, tx, index, parent, name, start_ns, end_ns, retried).
func writeSpans(dir, name string, ts []*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\ttx\tspan\tparent\tname\tstart_ns\tend_ns\tretried")
	for ti, t := range ts {
		if t == nil {
			continue
		}
		for i, s := range t.kept {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%t\n", ti, s.tx, i, s.parent, spanLabels[s.name], s.start, s.end, s.retried)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
