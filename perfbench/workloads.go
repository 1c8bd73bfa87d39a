package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	naru "repro"
	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/made"
	"repro/internal/metrics"
	"repro/internal/neurocard"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/table"
)

// Frozen offered loads in requests per second, so a faster program faces
// the same load rather than a re-scaled one. Each was set against the
// saturated throughput that `--capacity` measured for the workload's own
// stack and traffic (median of three runs, 32 closed-loop clients, 2-CPU
// Intel Xeon, on the code this benchmark was added against), and each is
// about a third of it: dmv-open saturated at 25.0 queries/s, mixed-rw at
// 23.8 requests/s.
const (
	rateOpen  = 9
	rateMixed = 8
)

// mixed-rw traffic. The shares and the skew are fixed design choices, not
// measured traffic: the repository holds no trace of real requests. One
// request in ten is a join and one in ten an append, which moves the result
// cache's epoch often. The rest are single-table estimates whose Zipf draws
// repeat often enough for the cache to hit between appends.
const (
	joinShare   = 0.1
	appendShare = 0.1
	zipfS       = 1.1 // skew of the single-table draws over the pool
)

// runCfg is one invocation.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	spansDir string
}

func requestCount(rate, seconds float64) int {
	n := int(math.Round(rate * seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// checkEstimate validates one estimate response: HTTP 200, model
// provenance, 0 ≤ sel ≤ 1, and the expected model version.
func checkEstimate(r *result, o outcome, what string, version uint64) (server.EstimateResponse, bool) {
	if o.status != http.StatusOK {
		r.fail("%s: HTTP %d: %s", what, o.status, bytes.TrimSpace(o.body))
		return server.EstimateResponse{}, false
	}
	er, err := decodeEstimate(o.body)
	switch {
	case err != nil:
		r.fail("%s: bad response: %v", what, err)
	case er.Source != "model" || er.Err != "":
		r.fail("%s: answered by %q (%s)", what, er.Source, er.Err)
	case !(er.Sel >= 0 && er.Sel <= 1):
		r.fail("%s: selectivity %v outside [0,1]", what, er.Sel)
	case er.ModelVersion != version:
		r.fail("%s: model version %d, want %d", what, er.ModelVersion, version)
	default:
		return er, true
	}
	return er, false
}

// qerrorMetrics sets qerror_p50 and qerror_p95.
func qerrorMetrics(r *result, qerrs []float64, what string) {
	sort.Float64s(qerrs)
	note := fmt.Sprintf("%s, %d answers", what, len(qerrs))
	r.set("qerror_p50", median(qerrs), note)
	r.set("qerror_p95", quantile(qerrs, 0.95), note)
}

// streamPhases is how many consecutive phases of equal request count an
// open-loop stream is cut into. The latency metrics are medians over the
// phases, so a stretch of host contention that slows one phase does not move
// them.
const streamPhases = 3

// segments cuts n items into k consecutive ranges [lo, hi) of near-equal
// length (fewer when n < k).
func segments(n, k int) [][2]int {
	k = max(min(k, n), 1)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// phaseLatency returns the median over the stream's phases of each phase's
// p50 and tail latency in ms (lat in send order), with notes.
func phaseLatency(lat []time.Duration) (p50, tl float64, p50Note, tailNote string) {
	var p50s, tails []float64
	for _, b := range segments(len(lat), streamPhases) {
		seg := sortedMs(lat[b[0]:b[1]])
		p50s = append(p50s, median(seg))
		v, note := tail(seg)
		tails = append(tails, v)
		tailNote = note
	}
	sort.Float64s(p50s)
	sort.Float64s(tails)
	p50Note = fmt.Sprintf("median over %d phases of ~%d requests of the phase p50", len(p50s), len(lat)/len(p50s))
	tailNote = fmt.Sprintf("median over %d phases of the phase tail (%s)", len(tails), tailNote)
	return median(p50s), median(tails), p50Note, tailNote
}

// latencyNote prints one request class's client latencies, in send order,
// as <name>_p50_ms and <name>_tail_ms. They are wall-clock times, so they
// are printed with the run's host steal and are not metrics.
func latencyNote(r *result, name string, lat []time.Duration) {
	p50, tl, p50Note, tailNote := phaseLatency(lat)
	r.info("%s_p50_ms %.3f (%s), %s_tail_ms %.3f (%s)", name, p50, p50Note, name, tl, tailNote)
}

// setCPU reports cpu_per_op_ms: the process's CPU time (user + system) over
// the measured stretch, divided by the operations served in it. Everything
// the program does for them counts, including the runtime's GC and
// scheduler; time the host stole does not.
func setCPU(r *result, u usage, ops int, what string) {
	r.set("cpu_per_op_ms", u.busy*1e3/float64(ops), fmt.Sprintf("process CPU ÷ %d %s over %.1f s wall", ops, what, u.wall))
}

// phaseCounts reports requests sent, succeeded and failed in each phase of
// a stream, given per-request success in send order.
func phaseCounts(r *result, ok []bool) {
	var parts []string
	for i, b := range segments(len(ok), streamPhases) {
		good := 0
		for _, g := range ok[b[0]:b[1]] {
			if g {
				good++
			}
		}
		parts = append(parts, fmt.Sprintf("phase %d sent %d, succeeded %d, failed %d", i+1, b[1]-b[0], good, b[1]-b[0]-good))
	}
	r.info("%s", strings.Join(parts, "; "))
}

// parseCost times query.ParseWhere plus the canonical String over the
// workload's request strings and returns microseconds per string.
func parseCost(wheres []string, tables []*table.Table) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < 100*time.Millisecond || n == 0 {
		for i, w := range wheres {
			q, err := query.ParseWhere(w, tables[i])
			if err == nil {
				_ = q.String(tables[i])
			}
			n++
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}

// setTrainLayers reports what the set-ups' core.TrainRun calls looked like.
func setTrainLayers(r *result, runs []trainStats) {
	var rates, steps []float64
	for _, ts := range runs {
		rates = append(rates, float64(ts.rows)/ts.dur.Seconds())
		for _, d := range ts.steps {
			steps = append(steps, float64(d)/1e6)
		}
	}
	sort.Float64s(rates)
	sort.Float64s(steps)
	r.set("core.train_rows_per_s", median(rates), fmt.Sprintf("median of %d TrainRun calls, %d workers", len(runs), trainWorkers))
	r.set("core.train_step_ms", median(steps), fmt.Sprintf("median of %d steps (TrainConfig.OnStep)", len(steps)))
}

// setModelLayers derives the core and made shares from the traced model's
// spans over queries served queries.
func setModelLayers(r *result, tr *tracer, queries int, domains []int) {
	wt := walkTimesOf(tr.snapshot())
	walk := float64(wt.walk)
	note := fmt.Sprintf("of %.0f ms walk time in %d blocks", walk/1e6, wt.blocks)
	r.set("core.self_frac", (walk-float64(wt.covered))/walk, note+" (draw, RNG, lane scheduling)")
	r.set("core.block_rows", float64(wt.blockRows)/float64(wt.blocks), fmt.Sprintf("BeginSampling n over %d blocks", wt.blocks))
	r.set("made.advance_frac", float64(wt.byKind[spanAdvance])/walk, note)
	r.set("made.decode_frac", float64(wt.byKind[spanDecode])/walk, note)
	r.set("made.cond_frac", float64(wt.byKind[spanCond])/walk, note)
	if wt.decRows == 0 {
		r.set("made.decode_ns_per_row", 0, "not exercised: no DecodeBlock calls")
		r.set("made.decode_flops", 0, "not exercised: no DecodeBlock calls")
	} else {
		r.set("made.decode_ns_per_row", float64(wt.decThread)/float64(wt.decRows), fmt.Sprintf("over %d decoded rows", wt.decRows))
		mc := bench.DMVModelConfig(modelSeed)
		last := mc.HiddenSizes[len(mc.HiddenSizes)-1]
		var madds float64
		for col, rows := range wt.decByCol {
			d := domains[col]
			per := float64(last * d)
			if d >= mc.EmbedThreshold { // embedding reuse: head to EmbedDim, then EmbedDim × domain
				per = float64(last*mc.EmbedDim + mc.EmbedDim*d)
			}
			madds += per * float64(rows)
		}
		r.set("made.decode_flops", madds/float64(queries), "computed from tensor sizes: rows × (last hidden × head width + reuse product), an upper bound")
	}
	if tr.dropped > 0 {
		r.info("span log full: %d spans dropped", tr.dropped)
	}
}

// notExercised zeroes the per-layer metrics of layers a workload bypasses.
func notExercised(r *result, names ...string) {
	for _, n := range names {
		r.set(n, 0, "not exercised by this workload")
	}
}

// writeSpans dumps a traced run's spans when a span directory is given.
func writeSpans(r *result, cfg runCfg, tr *tracer) {
	if cfg.spansDir == "" {
		return
	}
	path := fmt.Sprintf("%s/%s-seed%d.tsv", cfg.spansDir, cfg.workload, cfg.seed)
	if err := tr.write(path); err != nil {
		r.info("writing spans: %v", err)
		return
	}
	r.info("spans written to %s", path)
}

// setGen reports the generator's validity figures over every open-loop
// phase of the run and flags a backlog still draining at a phase's end.
func setGen(r *result, phases ...phase) {
	var late time.Duration
	backlog := 0
	for _, ph := range phases {
		if ph.late > late {
			late = ph.late
		}
		if ph.backlog > backlog {
			backlog = ph.backlog
		}
		if ph.drain > time.Second {
			r.info("WARNING backlog: %d requests in flight at the last send, drained %v after the last due time", ph.backlog, ph.drain.Round(time.Millisecond))
		}
	}
	r.set("gen.late_ms", float64(late)/1e6, "largest due-to-send gap")
	r.set("gen.backlog", float64(backlog), "requests in flight when the last one was sent")
}

// ---------------------------------------------------------------- tracing

// tracePairs is how many segments a traced run cuts an open-loop stream
// into. Each segment is served by the untraced and the traced stack back to
// back, the first of the pair alternating, so both passes see the same
// requests in the same stretch of host time.
const tracePairs = 6

// pairedPhases serves the stream segment by segment on both stacks and
// returns each stack's phases, one per segment, with the untraced stack's
// resource use over its segments.
func pairedPhases(plain, traced *stack, reqs []request, due []time.Duration) (up, tp []phase, u usage) {
	for s, b := range segments(len(reqs), tracePairs) {
		seg := reqs[b[0]:b[1]]
		sdue := make([]time.Duration, len(seg))
		var base time.Duration
		if b[0] > 0 {
			base = due[b[0]-1]
		}
		for i := range sdue {
			sdue[i] = due[b[0]+i] - base
		}
		runPlain := func() {
			before := readProcStats()
			up = append(up, runOpenLoop(plain.h, seg, sdue, nil))
			u.add(before, readProcStats())
		}
		runTraced := func() { tp = append(tp, runOpenLoop(traced.h, seg, sdue, traced.tr)) }
		if s%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
	}
	return up, tp, u
}

// merge joins a stack's consecutive segment phases into one phase over the
// whole stream, in send order.
func merge(phases []phase) phase {
	var m phase
	for _, ph := range phases {
		m.out = append(m.out, ph.out...)
		m.late = max(m.late, ph.late)
		m.backlog = max(m.backlog, ph.backlog)
		m.drain = max(m.drain, ph.drain)
		m.wall += ph.wall
	}
	return m
}

// setPairedOverhead reports trace.overhead_frac for an open-loop workload:
// the median over the paired segments of traced ÷ untraced p50 latency of
// the requests of one kind, minus 1.
func setPairedOverhead(r *result, reqs []request, up, tp []phase, kind opKind) {
	p50 := func(ph phase, seg []request) float64 {
		var lat []time.Duration
		for i, o := range ph.out {
			if seg[i].op == kind && o.status == http.StatusOK {
				lat = append(lat, o.latency())
			}
		}
		return median(sortedMs(lat))
	}
	var ratios []float64
	for s, b := range segments(len(reqs), tracePairs) {
		u, t := p50(up[s], reqs[b[0]:b[1]]), p50(tp[s], reqs[b[0]:b[1]])
		if u > 0 && t > 0 {
			ratios = append(ratios, t/u)
		}
	}
	sort.Float64s(ratios)
	r.set("trace.overhead_frac", median(ratios)-1, fmt.Sprintf("median over %d paired segments of traced ÷ untraced p50 latency, − 1", len(ratios)))
}

// ---------------------------------------------------------------- dmv-open

// built is one set-up's result: the trained DMV model, the join estimator
// on mixed-rw, and the stack over them.
type built struct {
	m    *made.Model
	join *neurocard.Estimator
	st   *stack
}

func (s *built) close() { s.st.close() }

// runOpen drives the coalesced DMV tenant with distinct single-table
// estimates at a fixed Poisson rate.
func runOpen(cfg runCfg, r *result) error {
	const rate float64 = rateOpen
	t := datagen.DMV(cfg.sc.dmvRows, dataSeed)
	n := requestCount(rate, cfg.seconds)
	pool, err := dmvPool(t, n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	perm := rng.Perm(n)
	due := poisson(rng, rate, n)
	reqs := make([]request, n)
	wheres := make([]string, n)
	tables := make([]*table.Table, n)
	for i, k := range perm {
		reqs[i] = estimateRequest(tenantDMV, opEst, pool[k].where, k)
		wheres[i], tables[i] = pool[k].where, t
	}

	var trains []trainStats
	su, setup, err := timedSetups(cfg.sc.setupReps, func() (*built, error) {
		m, ts, err := trainDMV(t, cfg.sc)
		if err != nil {
			return nil, err
		}
		trains = append(trains, ts)
		st, err := newOpenStack(m, t, nil, naru.NewMetrics())
		return &built{m: m, st: st}, err
	})
	if err != nil {
		return err
	}
	defer su.close()
	setSetup(r, setup, cfg.sc.setupReps, "TrainRun + estimator + coalescing tenant + server")

	// check validates every answer of one pass over the stream.
	check := func(ph phase) (lat []time.Duration, qerrs []float64) {
		r.attempted += len(reqs)
		cached := 0
		oks := make([]bool, len(ph.out))
		for i, o := range ph.out {
			ev, ok := checkEstimate(r, o, "estimate "+pool[reqs[i].ref].where, 1)
			if oks[i] = ok; !ok {
				continue
			}
			if ev.Cached {
				cached++
			}
			lat = append(lat, o.latency())
			qerrs = append(qerrs, metrics.QError(ev.Card, float64(pool[reqs[i].ref].truth)))
		}
		phaseCounts(r, oks)
		r.info("answered %.2f/s (first due to last response), offered %g/s; cache hits %d of %d (0 expected: distinct queries)",
			float64(len(lat))/ph.wall.Seconds(), rate, cached, len(ph.out))
		return lat, qerrs
	}

	if !cfg.trace {
		var u usage
		before := readProcStats()
		ph := runOpenLoop(su.st.h, reqs, due, nil)
		u.add(before, readProcStats())
		r.info("%s", u.load("the measured phase"))
		lat, qerrs := check(ph)
		setCPU(r, u, len(reqs), "estimate requests")
		latencyNote(r, "est", lat)
		qerrorMetrics(r, qerrs, "single-table vs exact truth")
		memNote(r)
		setGen(r, ph)
		return nil
	}

	// Traced run: a second stack over the same model serves a timedModel,
	// and the two serve the stream in paired segments.
	tr := newTracer()
	tst, err := newOpenStack(su.m, t, tr, naru.NewMetrics())
	if err != nil {
		return err
	}
	defer tst.close()
	up, tp, u := pairedPhases(su.st, tst, reqs, due)
	uph, tph := merge(up), merge(tp)
	r.info("%s", u.load("the untraced segments"))
	check(uph)
	check(tph)
	writeSpans(r, cfg, tr)
	setGen(r, uph, tph)
	serve := make([]time.Duration, len(uph.out))
	var serveSum time.Duration
	for i, o := range uph.out {
		serve[i] = o.serveTime()
		serveSum += serve[i]
	}
	walkMs := setTenantLayers(r, su.st.reg, serve, wheres, tables, u, n)
	r.set("naru.coalesce_wait_ms", serveSum.Seconds()*1e3/float64(len(serve))-walkMs, "mean ServeHTTP − mean naru_query_latency_seconds (dispatch to retire)")
	setTrainLayers(r, trains)
	setModelLayers(r, tr, n, t.DomainSizes())
	notExercised(r, "lifecycle.append_ms", "lifecycle.copy_rows", "lifecycle.scored_rows",
		"neurocard.estimate_ms", "neurocard.scaled_frac", "neurocard.train_s")
	setPairedOverhead(r, reqs, up, tp, opEst)
	return nil
}

// setTenantLayers reports what the two server workloads measure the same
// way on the untraced pass: ServeHTTP time of single-table estimates, the
// DMV tenant's cache, walk and path counters from its registry,
// request-string parsing, and allocations and GC. It returns the mean walk
// time in ms.
func setTenantLayers(r *result, reg *naru.Metrics, estServe []time.Duration, wheres []string, tables []*table.Table, u usage, requests int) (walkMs float64) {
	r.set("server.estimate_ms", median(sortedMs(estServe)), "median ServeHTTP of single-table estimates")
	hits, misses := counter(reg, "naru_cache_hits_total", tenantDMV), counter(reg, "naru_cache_misses_total", tenantDMV)
	r.set("server.cache_hit_frac", hits/(hits+misses), "naru_cache_hits_total ÷ lookups")
	r.set("query.parse_us", parseCost(wheres, tables), "ParseWhere + String per request string")
	walkMs = histMean(reg, "naru_query_latency_seconds", tenantDMV) * 1e3
	r.set("core.walk_ms", walkMs, "mean naru_query_latency_seconds of the DMV tenant")
	queries := counter(reg, "naru_queries_total", tenantDMV)
	r.set("core.samples_per_query", counter(reg, "naru_sample_paths_completed_total", tenantDMV)/queries, "naru_sample_paths_completed_total ÷ queries")
	r.set("core.enum_frac", counter(reg, "naru_query_path_enum_total", tenantDMV)/queries, "naru_query_path_enum_total ÷ queries")
	r.set("core.allocs_per_query", float64(u.allocs)/float64(requests), "Mallocs per request over the untraced segments (server and JSON included)")
	r.set("runtime.gc_cpu_frac", u.gcFrac(), "GC share of used CPU over the untraced segments")
	return walkMs
}

// ---------------------------------------------------------------- dmv-bulk

// runBulk hands the whole labelled query set to the facade's fused batch
// call at Workers=1, over and over on one warm estimator, for the run's
// duration.
func runBulk(cfg runCfg, r *result) error {
	t := datagen.DMV(cfg.sc.dmvRows, dataSeed)
	pool, err := dmvPool(t, cfg.sc.bulkQueries)
	if err != nil {
		return err
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(pool))
	regs := make([]*naru.Region, len(pool))
	wheres := make([]string, len(pool))
	tables := make([]*table.Table, len(pool))
	for i, k := range perm {
		regs[i], wheres[i], tables[i] = pool[k].reg, pool[k].where, t
	}
	n := len(regs)

	var trains []trainStats
	su, setup, err := timedSetups(cfg.sc.setupReps, func() (*built, error) {
		m, ts, err := trainDMV(t, cfg.sc)
		if err != nil {
			return nil, err
		}
		trains = append(trains, ts)
		return &built{m: m, st: newBulkStack(m, t, nil, naru.NewMetrics())}, nil
	})
	if err != nil {
		return err
	}
	setSetup(r, setup, cfg.sc.setupReps, "TrainRun + estimator")

	// The per-query path on a fresh estimator with the same seed is the
	// reference every fused answer must match bit for bit.
	ctx := context.Background()
	opts := naru.ServeOptions{Workers: 1}
	ref := newBulkStack(su.m, t, nil, nil).est.EstimateBatchCtx(ctx, regs, opts)
	r.attempted += n
	var qerrs []float64
	samples := 0
	for i, res := range ref {
		if res.Source != naru.SourceModel || res.Err != nil || !(res.Sel >= 0 && res.Sel <= 1) {
			r.fail("reference query %d: %s sel=%v err=%v", i, res.Source, res.Sel, res.Err)
			continue
		}
		samples += res.Samples
		qerrs = append(qerrs, metrics.QError(res.Sel*float64(t.NumRows()), float64(pool[perm[i]].truth)))
	}
	qerrorMetrics(r, qerrs, "single-table vs exact truth")

	// call hands the whole set to one stack's fused entry point and returns
	// the answers with the call's wall time and resource use.
	call := func(st *stack) ([]naru.Result, time.Duration, usage) {
		before := readProcStats()
		t0 := time.Now()
		res := st.est.EstimateFused(ctx, regs, opts)
		d := time.Since(t0)
		var u usage
		u.add(before, readProcStats())
		if st.tr != nil {
			st.tr.add(span{kind: spanCall, col: -1, parent: -1, start: st.tr.at(t0), end: st.tr.at(t0.Add(d))})
		}
		return res, d, u
	}
	// verify checks one fused call's answers. With want, every answer must
	// match it bit for bit. Otherwise every answer must come from the model,
	// with the reference's sample count and stop reason and a selectivity in
	// [0, 1].
	verify := func(res, want []naru.Result, what string) {
		r.attempted += n
		for i, a := range res {
			switch {
			case want != nil && !sameResult(a, want[i]):
				r.fail("%s, query %d: sel %v, want %v bit for bit (%s, %d samples)", what, i, a.Sel, want[i].Sel, a.Source, a.Samples)
			case want == nil && (a.Source != naru.SourceModel || a.Err != nil || !(a.Sel >= 0 && a.Sel <= 1) || a.Samples != ref[i].Samples || a.Stop != ref[i].Stop):
				r.fail("%s, query %d: %s sel=%v samples=%d stop=%v err=%v", what, i, a.Source, a.Sel, a.Samples, a.Stop, a.Err)
			}
		}
	}
	// Warm-up: the first call on an estimator forks its replica and fills
	// its pools and first-wave memo; timed calls see the steady state. The
	// estimator numbers the queries it serves and seeds each from its number,
	// so only a first call has a per-query counterpart on a fresh estimator:
	// that is where bit-identity is checked. Later calls draw new samples.
	warm := func(st *stack, what string) {
		res, _, _ := call(st)
		verify(res, ref, what)
	}
	warm(su.st, "first fused call vs per-query path")
	dur := time.Duration(cfg.seconds * float64(time.Second))
	perQuery := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(n) }

	if !cfg.trace {
		var u usage
		var walls, cpus []float64
		for start := time.Now(); time.Since(start) < dur; {
			res, d, cu := call(su.st)
			verify(res, nil, "warm fused call")
			u.plus(cu)
			walls = append(walls, perQuery(d))
			cpus = append(cpus, cu.busy*1e3/float64(n))
		}
		r.info("%s", u.load("the timed calls"))
		sort.Float64s(walls)
		sort.Float64s(cpus)
		r.set("cpu_per_op_ms", median(cpus), fmt.Sprintf("process CPU ÷ %d queries, median of %d warm fused calls", n, len(cpus)))
		r.info("bulk wall per query: median %.3f ms, slowest %.3f ms of %d warm fused calls; bulk_qps %.3f (median call); CPU per query %.3f to %.3f ms",
			median(walls), walls[len(walls)-1], len(walls), 1e3/median(walls), cpus[0], cpus[len(cpus)-1])
		memNote(r)
		return nil
	}

	// Traced run: a second warm estimator over the same model serves a
	// timedModel. The two take turns for twice the run's duration, the first
	// of each pair alternating, so both see the same stretch of host time.
	// Both serve the same sequence of calls, so the traced answers must
	// match the untraced ones bit for bit.
	tr := newTracer()
	tst := newBulkStack(su.m, t, tr, naru.NewMetrics())
	warm(tst, "first traced fused call vs per-query path")
	tr.reset()
	var u usage
	var walls, allocs, ratios []float64
	for i, start := 0, time.Now(); i == 0 || time.Since(start) < 2*dur; i++ {
		var ures, tres []naru.Result
		var du, dt time.Duration
		var cu usage
		if i%2 == 0 {
			ures, du, cu = call(su.st)
			tres, dt, _ = call(tst)
		} else {
			tres, dt, _ = call(tst)
			ures, du, cu = call(su.st)
		}
		verify(ures, nil, "warm fused call")
		verify(tres, ures, "traced warm fused call vs untraced")
		u.plus(cu)
		walls = append(walls, perQuery(du))
		allocs = append(allocs, float64(cu.allocs)/float64(n))
		ratios = append(ratios, float64(dt)/float64(du))
	}
	r.info("%s", u.load("the untraced calls"))
	writeSpans(r, cfg, tr)
	sort.Float64s(walls)
	sort.Float64s(allocs)
	sort.Float64s(ratios)
	notExercised(r, "server.estimate_ms", "server.cache_hit_frac", "naru.coalesce_wait_ms",
		"lifecycle.append_ms", "lifecycle.copy_rows", "lifecycle.scored_rows",
		"neurocard.estimate_ms", "neurocard.scaled_frac", "neurocard.train_s", "gen.late_ms", "gen.backlog")
	r.set("query.parse_us", parseCost(wheres, tables), "ParseWhere + String per labelled query string")
	r.set("core.walk_ms", median(walls), fmt.Sprintf("untraced fused call wall ÷ queries, median of %d warm calls", len(walls)))
	snap := su.st.reg.Snapshot()
	r.set("core.samples_per_query", float64(samples)/float64(n), "Result.Samples per query")
	r.set("core.enum_frac", float64(snap.Counters["naru_query_path_enum_total"])/float64(snap.Counters["naru_queries_total"]), "naru_query_path_enum_total ÷ queries")
	r.set("core.allocs_per_query", median(allocs), fmt.Sprintf("Mallocs delta around the untraced warm fused call ÷ queries, median of %d calls", len(allocs)))
	setTrainLayers(r, trains)
	setModelLayers(r, tr, n*len(ratios), t.DomainSizes())
	r.set("runtime.gc_cpu_frac", u.gcFrac(), "GC share of used CPU over the untraced calls")
	r.set("trace.overhead_frac", median(ratios)-1, fmt.Sprintf("median over %d paired calls of traced ÷ untraced wall, − 1", len(ratios)))
	return nil
}

// sameResult reports whether two served results are bit-identical.
func sameResult(a, b naru.Result) bool {
	return math.Float64bits(a.Sel) == math.Float64bits(b.Sel) &&
		math.Float64bits(a.StdErr) == math.Float64bits(b.StdErr) &&
		a.Source == b.Source && a.Samples == b.Samples && a.Stop == b.Stop
}

// ---------------------------------------------------------------- mixed-rw

// mixedInputs is mixed-rw's generated traffic and what its answers are
// checked against.
type mixedInputs struct {
	t       *table.Table
	estPool []labelled
	sch     *neurocard.Schema
	jpool   []labelled
	reqs    []request
	due     []time.Duration
	wheres  []string // every estimate's request string, for query.parse_us
	tables  []*table.Table
	nApp    int
}

// newMixedInputs generates n mixed-rw requests. The requests and their
// order depend only on n: Zipf-expected counts over the single-table pool,
// every join query once, and the appends, shuffled by the fixed mixSeed. So
// every run serves the same sequence, and its result cache hits the same
// requests; when the run's seed shuffled them, the hit count moved with the
// seed. The seed draws the appended rows and the arrival times.
func newMixedInputs(sc scale, seed int64, n int) (*mixedInputs, error) {
	in := &mixedInputs{t: datagen.DMV(sc.dmvRows, dataSeed)}
	nJoin := int(math.Round(joinShare * float64(n)))
	in.nApp = int(math.Round(appendShare * float64(n)))
	nEst := n - nJoin - in.nApp
	var err error
	if in.estPool, err = dmvPool(in.t, sc.estPool); err != nil {
		return nil, err
	}
	if in.sch, err = joinSchema(sc.joinCustomers); err != nil {
		return nil, err
	}
	smp, err := neurocard.NewSampler(in.sch)
	if err != nil {
		return nil, err
	}
	lt, err := smp.LayoutTable()
	if err != nil {
		return nil, err
	}
	if in.jpool, err = joinPool(smp, lt, neurocard.NewOracle(in.sch), max(nJoin, 1)); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	type op struct {
		kind opKind
		ref  int
	}
	ops := make([]op, 0, n)
	for k, c := range zipfCounts(len(in.estPool), nEst) {
		for ; c > 0; c-- {
			ops = append(ops, op{opEst, k})
		}
	}
	for k := 0; k < nJoin; k++ {
		ops = append(ops, op{opJoin, k})
	}
	for k := 0; k < in.nApp; k++ {
		ops = append(ops, op{kind: opAppend})
	}
	rand.New(rand.NewSource(mixSeed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	in.reqs = make([]request, n)
	for i, o := range ops {
		switch o.kind {
		case opEst:
			in.reqs[i] = estimateRequest(tenantDMV, opEst, in.estPool[o.ref].where, o.ref)
			in.wheres, in.tables = append(in.wheres, in.estPool[o.ref].where), append(in.tables, in.t)
		case opJoin:
			in.reqs[i] = estimateRequest(tenantJoin, opJoin, in.jpool[o.ref].where, o.ref)
			in.wheres, in.tables = append(in.wheres, in.jpool[o.ref].where), append(in.tables, lt)
		case opAppend:
			in.reqs[i] = request{op: opAppend, method: http.MethodPost, target: "/v1/" + tenantDMV + "/append", body: resampleCSV(in.t, rng, sc.appendRows)}
		}
	}
	in.due = poisson(rng, rateMixed, n)
	return in, nil
}

// newMixedBuilt trains both models and assembles the untraced mixed-rw
// stack, with the join estimator reporting into the stack's registry.
func newMixedBuilt(in *mixedInputs, sc scale) (*built, trainStats, time.Duration, error) {
	m, ts, err := trainDMV(in.t, sc)
	if err != nil {
		return nil, ts, 0, err
	}
	reg := naru.NewMetrics()
	j0 := time.Now()
	join, err := trainJoin(in.sch, sc, reg.WithLabel("tenant", tenantJoin))
	if err != nil {
		return nil, ts, 0, err
	}
	jdur := time.Since(j0)
	st, err := newMixedStack(m, in.t, join, nil, reg)
	return &built{m: m, join: join, st: st}, ts, jdur, err
}

// runMixed drives one server with a DMV tenant (direct per-query walk,
// result cache, ingestion) and a join tenant with one Poisson stream of
// Zipf-skewed single-table estimates, join estimates and small appends.
func runMixed(cfg runCfg, r *result) error {
	n := requestCount(rateMixed, cfg.seconds)
	in, err := newMixedInputs(cfg.sc, cfg.seed, n)
	if err != nil {
		return err
	}

	var trains []trainStats
	var joinTrains []float64
	su, setup, err := timedSetups(cfg.sc.setupReps, func() (*built, error) {
		b, ts, jdur, err := newMixedBuilt(in, cfg.sc)
		trains, joinTrains = append(trains, ts), append(joinTrains, jdur.Seconds())
		return b, err
	})
	if err != nil {
		return err
	}
	defer su.close()
	setSetup(r, setup, cfg.sc.setupReps, "DMV TrainRun + neurocard.Train + estimator + lifecycle + tenants + server")

	// check validates every answer of one stack's pass over the stream and
	// the DMV tenant's state after it. It returns the latencies per request
	// class, the join q-errors, and the total_rows the appends reported.
	type classLat struct {
		est, join, app []time.Duration
		hits           int // single-table answers served from the result cache
	}
	check := func(st *stack, ph phase) (cl classLat, qerrs []float64, totalRows int) {
		r.attempted += len(in.reqs)
		oks := make([]bool, len(ph.out))
		for i, o := range ph.out {
			rq := in.reqs[i]
			switch rq.op {
			case opEst:
				if ev, ok := checkEstimate(r, o, "estimate "+in.estPool[rq.ref].where, 1); ok {
					cl.est = append(cl.est, o.latency())
					oks[i] = true
					if ev.Cached {
						cl.hits++
					}
				}
			case opJoin:
				if ev, ok := checkEstimate(r, o, "join "+in.jpool[rq.ref].where, 1); ok {
					cl.join = append(cl.join, o.latency())
					qerrs = append(qerrs, metrics.QError(ev.Card, float64(in.jpool[rq.ref].truth)))
					oks[i] = true
				}
			case opAppend:
				if o.status != http.StatusOK {
					r.fail("append: HTTP %d: %s", o.status, bytes.TrimSpace(o.body))
					continue
				}
				ar, err := decodeAppend(o.body)
				if err != nil || ar.Appended != cfg.sc.appendRows {
					r.fail("append: %d rows appended (want %d), err %v", ar.Appended, cfg.sc.appendRows, err)
					continue
				}
				totalRows += ar.TotalRows
				cl.app = append(cl.app, o.latency())
				oks[i] = true
			}
		}
		phaseCounts(r, oks)
		// Appends add no unseen values, so no refresh may fire: the DMV
		// tenant must still serve version 1, over every appended row.
		if v := st.est.ModelVersion(); v != 1 {
			r.fail("DMV tenant model version changed to %d during the run", v)
		}
		if got, want := st.est.Lifecycle().Snapshot().NumRows(), in.t.NumRows()+in.nApp*cfg.sc.appendRows; got != want {
			r.fail("DMV snapshot has %d rows after the run, want %d", got, want)
		}
		return cl, qerrs, totalRows
	}

	if !cfg.trace {
		var u usage
		before := readProcStats()
		ph := runOpenLoop(su.st.h, in.reqs, in.due, nil)
		u.add(before, readProcStats())
		r.info("%s", u.load("the measured phase"))
		cl, qerrs, _ := check(su.st, ph)
		setCPU(r, u, len(in.reqs), "requests of the mix")
		r.info("single-table answers %.2f/s (first due to last response), %d of %d from the result cache", float64(len(cl.est))/ph.wall.Seconds(), cl.hits, len(cl.est))
		qerrorMetrics(r, qerrs, "join vs nested-loop oracle")
		memNote(r)
		latencyNote(r, "est", cl.est)
		latencyNote(r, "join", cl.join)
		latencyNote(r, "append", cl.app)
		setGen(r, ph)
		return nil
	}

	// Traced run: a second stack over the same models serves a timedModel
	// for the DMV tenant, and the two serve the stream in paired segments.
	tr := newTracer()
	tst, err := newMixedStack(su.m, in.t, su.join, tr, naru.NewMetrics())
	if err != nil {
		return err
	}
	defer tst.close()
	scored0 := gauge(su.st.reg, "naru_lifecycle_drift_scored_rows", tenantDMV)
	up, tp, u := pairedPhases(su.st, tst, in.reqs, in.due)
	uph, tph := merge(up), merge(tp)
	r.info("%s", u.load("the untraced segments"))
	ucl, _, totalRows := check(su.st, uph)
	check(tst, tph)
	writeSpans(r, cfg, tr)
	setGen(r, uph, tph)
	byOp := map[opKind][]time.Duration{}
	for i, o := range uph.out {
		byOp[in.reqs[i].op] = append(byOp[in.reqs[i].op], o.serveTime())
	}
	setTenantLayers(r, su.st.reg, byOp[opEst], in.wheres, in.tables, u, n)
	notExercised(r, "naru.coalesce_wait_ms")
	setTrainLayers(r, trains)
	setModelLayers(r, tr, int(counter(tst.reg, "naru_queries_total", tenantDMV)), in.t.DomainSizes())
	r.set("lifecycle.append_ms", median(sortedMs(byOp[opAppend])), "median ServeHTTP of appends")
	if len(ucl.app) > 0 {
		r.set("lifecycle.copy_rows", float64(totalRows)/float64(len(ucl.app)), "mean total_rows of the append responses")
	} else {
		r.set("lifecycle.copy_rows", 0, "no append succeeded")
	}
	r.set("lifecycle.scored_rows", (gauge(su.st.reg, "naru_lifecycle_drift_scored_rows", tenantDMV)-scored0)/float64(max(in.nApp, 1)), "naru_lifecycle_drift_scored_rows per append")
	r.set("neurocard.estimate_ms", median(sortedMs(byOp[opJoin])), "median ServeHTTP of join estimates")
	scaled, total := counter(su.st.reg, "naru_join_estimates_scaled_total", tenantJoin), counter(su.st.reg, "naru_join_estimates_total", tenantJoin)
	r.set("neurocard.scaled_frac", scaled/total, "naru_join_estimates_scaled_total ÷ naru_join_estimates_total, over both passes (they serve the same joins)")
	sort.Float64s(joinTrains)
	r.set("neurocard.train_s", median(joinTrains), fmt.Sprintf("median of %d neurocard.Train calls in set-up", len(joinTrains)))
	setPairedOverhead(r, in.reqs, up, tp, opEst)
	return nil
}

// zipfCounts spreads n draws over k items in proportion to the Zipf weights
// (1+i)^-zipfS, rounding by largest remainder so the counts sum to n.
func zipfCounts(k, n int) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(1+i), -zipfS)
		sum += w[i]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		left -= counts[i]
		rem[i] = i
		w[i] = exact - float64(counts[i])
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, i := range rem[:left] {
		counts[i]++
	}
	return counts
}

// resampleCSV renders k rows drawn uniformly from the base table as
// header-less CSV. Every value already exists in the table, so appends never
// extend a dictionary.
func resampleCSV(t *table.Table, rng *rand.Rand, k int) string {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	row := make([]string, t.NumCols())
	for i := 0; i < k; i++ {
		src := rng.Intn(t.NumRows())
		for c, col := range t.Cols {
			row[c] = col.ValueString(col.Codes[src])
		}
		w.Write(row)
	}
	w.Flush()
	return buf.String()
}

// ---------------------------------------------------------------- capacity

// measureCapacity saturates a workload's untraced stack with closed-loop
// clients and returns answered requests per second. dmv-open's clients send
// distinct estimates; mixed-rw's send the workload's own request mix in its
// seeded order. It is how the frozen rates were chosen; it is not a
// workload.
func measureCapacity(workload string, seconds float64, clients int) (float64, error) {
	sc := fullScale
	var st *stack
	var reqs []request
	switch workload {
	case "dmv-open":
		t := datagen.DMV(sc.dmvRows, dataSeed)
		pool, err := dmvPool(t, int(seconds*80)+clients)
		if err != nil {
			return 0, err
		}
		m, _, err := trainDMV(t, sc)
		if err != nil {
			return 0, err
		}
		if st, err = newOpenStack(m, t, nil, naru.NewMetrics()); err != nil {
			return 0, err
		}
		for k, l := range pool {
			reqs = append(reqs, estimateRequest(tenantDMV, opEst, l.where, k))
		}
	case "mixed-rw":
		in, err := newMixedInputs(sc, 1, int(seconds*40)+clients)
		if err != nil {
			return 0, err
		}
		b, _, _, err := newMixedBuilt(in, sc)
		if err != nil {
			return 0, err
		}
		st, reqs = b.st, in.reqs
	default:
		return 0, fmt.Errorf("no capacity measurement for workload %q", workload)
	}
	defer st.close()
	var next, done atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				if status, _ := do(st.h, reqs[k]); status == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), nil
}
