package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/made"
)

// spanKind says what a span times.
type spanKind uint8

const (
	spanRequest spanKind = iota // one generated request: due time to response
	spanGenWait                 // due time to send (child of a request)
	spanServe                   // ServeHTTP (child of a request)
	spanCall                    // one facade batch call
	spanBlock                   // one sampling block on one model replica
	spanBegin                   // made BeginSampling (child of a block)
	spanAdvance                 // made AdvanceBlock / AdvanceRows
	spanDecode                  // made DecodeBlock: head GEMM and softmax
	spanCond                    // made CondBatch: the per-query path
)

var spanNames = [...]string{"request", "gen.wait", "serve", "call", "block", "begin", "advance", "decode", "cond"}

// opKind labels a request span with the operation it carried.
type opKind uint8

const (
	opNone opKind = iota
	opEst
	opJoin
	opAppend
)

var opNames = [...]string{"-", "est", "join", "append"}

// span is one timed interval. Times are nanoseconds since the tracer's epoch.
// A block span's end is the end of the last model call inside it, so the
// block covers the walk from BeginSampling to its last decode, including the
// sampler's own draw and scheduling work between model calls.
type span struct {
	kind       spanKind
	op         opKind
	col        int16
	rows       int32
	parent     int32 // index of the parent span, -1 for roots
	start, end int64
}

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps every span of a traced run in memory and writes them out at
// exit. It is safe for concurrent use.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// add records a finished span and returns its index (-1 when dropped). A
// child extends its parent's end, which is how block spans grow.
func (tr *tracer) add(s span) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return -1
	}
	if s.parent >= 0 && tr.spans[s.parent].end < s.end {
		tr.spans[s.parent].end = s.end
	}
	tr.spans = append(tr.spans, s)
	return int32(len(tr.spans) - 1)
}

// reset empties the span log, so a warm-up call leaves nothing in it.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans, tr.dropped = tr.spans[:0], 0
}

// snapshot copies the span log.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// write dumps the span log as tab-separated lines, one span per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tkind\top\tparent\tstart_ns\tend_ns\trows\tcol")
	for i, s := range tr.snapshot() {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], opNames[s.op], s.parent, s.start, s.end, s.rows, s.col)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedModel embeds a trained *made.Model and times the sampling walk's
// model calls from outside: BeginSampling opens a block span on the replica
// and every advance, decode and conditional call inside the block becomes a
// child span. Every other method, and so every optional core interface the
// model implements, is promoted unchanged, so the walk takes exactly the path
// it takes on the bare model. ForkModel re-wraps each replica, so the
// estimator's pooled replicas stay timed.
type timedModel struct {
	*made.Model
	tr    *tracer
	block atomic.Int32 // index of the replica's open block span
	adv   atomic.Int64 // start of a ranged advance (BeginAdvanceRows)
}

func newTimedModel(m *made.Model, tr *tracer) *timedModel {
	tm := &timedModel{Model: m, tr: tr}
	tm.block.Store(-1)
	return tm
}

// ForkModel implements core.Forkable with a wrapped replica.
func (m *timedModel) ForkModel() any { return newTimedModel(m.Model.Fork(), m.tr) }

func (m *timedModel) child(kind spanKind, t0 int64, rows, col int) {
	m.tr.add(span{kind: kind, col: int16(col), rows: int32(rows), parent: m.block.Load(), start: t0, end: m.tr.now()})
}

// BeginSampling implements core.SequentialModel and opens a block span.
func (m *timedModel) BeginSampling(n int) {
	t0 := m.tr.now()
	m.block.Store(m.tr.add(span{kind: spanBlock, col: -1, rows: int32(n), parent: -1, start: t0, end: t0}))
	m.Model.BeginSampling(n)
	m.child(spanBegin, t0, n, -1)
}

// CondBatch implements core.Model.
func (m *timedModel) CondBatch(codes []int32, n int, col int, out [][]float64) {
	t0 := m.tr.now()
	m.Model.CondBatch(codes, n, col, out)
	m.child(spanCond, t0, n, col)
}

// AdvanceBlock implements core.BlockModel.
func (m *timedModel) AdvanceBlock(codes []int32, n, col int) {
	t0 := m.tr.now()
	m.Model.AdvanceBlock(codes, n, col)
	m.child(spanAdvance, t0, n, col)
}

// BeginAdvanceRows implements core.BlockRowAdvancer. A ranged advance is
// timed as one span from BeginAdvanceRows to FinishAdvanceRows, which covers
// its concurrent AdvanceRows calls.
func (m *timedModel) BeginAdvanceRows(n, col int) {
	m.adv.Store(m.tr.now())
	m.Model.BeginAdvanceRows(n, col)
}

// FinishAdvanceRows implements core.BlockRowAdvancer.
func (m *timedModel) FinishAdvanceRows(col int) {
	m.Model.FinishAdvanceRows(col)
	m.child(spanAdvance, m.adv.Load(), 0, col)
}

// DecodeBlock implements core.BlockModel. Concurrent row-range decodes each
// record their own span; per-layer shares take the union of their intervals.
func (m *timedModel) DecodeBlock(col, r0, r1 int, out [][]float64) {
	t0 := m.tr.now()
	m.Model.DecodeBlock(col, r0, r1, out)
	m.child(spanDecode, t0, r1-r0, col)
}

// walkTimes sums the model-side view of the span log: block (walk) time and,
// per model-call kind, the time its spans cover inside their blocks, with
// overlapping concurrent calls counted once.
type walkTimes struct {
	blocks    int
	blockRows int64
	walk      time.Duration
	covered   time.Duration // union of every model call inside the blocks
	byKind    map[spanKind]time.Duration
	decRows   int64
	decThread time.Duration // summed decode span time, for per-row cost
	decByCol  map[int16]int64
}

func walkTimesOf(spans []span) walkTimes {
	wt := walkTimes{byKind: map[spanKind]time.Duration{}, decByCol: map[int16]int64{}}
	children := map[int32][]span{}
	for i, s := range spans {
		switch s.kind {
		case spanBlock:
			wt.blocks++
			wt.blockRows += int64(s.rows)
			wt.walk += time.Duration(spans[i].end - spans[i].start)
		case spanBegin, spanAdvance, spanDecode, spanCond:
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], s)
			}
			if s.kind == spanDecode {
				wt.decRows += int64(s.rows)
				wt.decThread += time.Duration(s.end - s.start)
				wt.decByCol[s.col] += int64(s.rows)
			}
		}
	}
	for _, kids := range children {
		wt.covered += union(kids, func(span) bool { return true })
		for _, k := range []spanKind{spanBegin, spanAdvance, spanDecode, spanCond} {
			k := k
			wt.byKind[k] += union(kids, func(s span) bool { return s.kind == k })
		}
	}
	return wt
}

// union returns the total length of the selected spans' intervals, counting
// overlapping stretches once.
func union(spans []span, keep func(span) bool) time.Duration {
	var iv [][2]int64
	for _, s := range spans {
		if keep(s) {
			iv = append(iv, [2]int64{s.start, s.end})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curEnd {
			if x[1] > curEnd {
				curEnd = x[1]
			}
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = x[0], x[1], true
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}
