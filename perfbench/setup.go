package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	naru "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/made"
	"repro/internal/neurocard"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/table"
)

// Fixed seeds: the table, the trained models, the labelled query pools and
// the order of the mixed-rw requests are the same in every run, so a run's
// --seed only reorders and schedules the work (arrival times, the order of
// the dmv-open and dmv-bulk queries, appended rows).
const (
	dataSeed  = 1
	modelSeed = 1
	poolSeed  = 101
	mixSeed   = 105
	// joinSeed seeds the join schema's data and the join model, as
	// `narubench join` does at its default seed.
	joinSeed     = 1
	joinPoolSeed = 103
	// serveSeed is the estimators' sampling seed (naru.Config.Seed).
	serveSeed = 4
)

// Serving shapes.
const (
	openSamples  = 1000 // dmv-open: bench.DMVModelConfig at S=1000, as in the inference benchmark
	openWorkers  = 1    // dmv-open: fused parallelism per coalesced dispatch (see newOpenStack)
	serveSamples = 2000 // mixed-rw: the default `naru serve` budget
	joinSamples  = 2000 // the `narubench join` tenant
	batchWindow  = 2 * time.Millisecond
	maxInFlight  = 2 // `naru serve -max-inflight` default
	trainWorkers = 2 // fixed, so the trained bits do not depend on the box
	tenantDMV    = "dmv"
	tenantJoin   = "join"
)

// scale sizes one run. The benchmark runs at fullScale; the smoke test uses a
// tiny one.
type scale struct {
	dmvRows       int // synthetic DMV rows the model trains on
	dmvEpochs     int
	setupReps     int // set-ups per run; setup_s is their median
	bulkQueries   int // the labelled set handed to the fused batch call
	estPool       int // distinct single-table queries mixed-rw draws from
	joinCustomers int // customers in the 3-table join; orders and items scale with it
	joinEpochs    int
	appendRows    int // rows per mixed-rw append
}

var fullScale = scale{
	dmvRows:       10_000,
	dmvEpochs:     2,
	setupReps:     3,
	bulkQueries:   120,
	estPool:       256, // a quarter of the default 1024-entry result cache
	joinCustomers: 600, // `narubench join` at its default 60K DMV rows
	joinEpochs:    6,
	appendRows:    8,
}

// labelled is one query with its exact answer on the DMV base table.
type labelled struct {
	where string // canonical rendering, as sent over HTTP
	reg   *query.Region
	truth int64
}

// dmvPool generates n distinct labelled single-table queries from the fixed
// pool seed. The first k queries of a pool do not depend on n.
func dmvPool(t *table.Table, n int) ([]labelled, error) {
	gen := query.NewGenerator(t, query.DefaultGeneratorConfig(), poolSeed)
	seen := map[string]bool{}
	var out []labelled
	for tries := 0; len(out) < n; tries++ {
		if tries > 20*n+100 {
			return nil, fmt.Errorf("only %d distinct queries after %d draws", len(out), tries)
		}
		q := gen.Next()
		where := q.String(t)
		if seen[where] {
			continue
		}
		seen[where] = true
		// The server parses the rendered string; it must land on the same
		// query the truth was computed for.
		back, err := query.ParseWhere(where, t)
		if err != nil || back.String(t) != where {
			continue
		}
		reg, err := query.Compile(back, t)
		if err != nil {
			return nil, err
		}
		out = append(out, labelled{where: where, reg: reg, truth: query.Execute(reg, t)})
	}
	return out, nil
}

// trainStats is what the benchmark sees of one core.TrainRun from outside.
type trainStats struct {
	dur   time.Duration
	rows  int // tuples consumed: epochs × table rows
	steps []time.Duration
}

// trainDMV trains the DMV model: bench.DMVModelConfig through core.TrainRun.
func trainDMV(t *table.Table, sc scale) (*made.Model, trainStats, error) {
	m := made.New(t.DomainSizes(), bench.DMVModelConfig(modelSeed))
	st := trainStats{rows: sc.dmvEpochs * t.NumRows()}
	start := time.Now()
	last := start
	_, err := core.TrainRun(m, t, core.TrainConfig{
		Epochs: sc.dmvEpochs, BatchSize: 512, LR: 2e-3, Seed: modelSeed + 1, Workers: trainWorkers,
		OnStep: func(int, float64) error {
			now := time.Now()
			st.steps = append(st.steps, now.Sub(last))
			last = now
			return nil
		},
	})
	st.dur = time.Since(start)
	return m, st, err
}

// joinSchema builds the skewed 3-table schema `narubench join` serves
// (customers ⋈ orders ⋈ items), with its generator and seed: a heavy head of
// customers places most orders, and big orders carry more items.
func joinSchema(customers int) (*neurocard.Schema, error) {
	rng := rand.New(rand.NewSource(joinSeed))
	regions := []string{"east", "west", "north", "south", "core", "edge"}
	cb := table.NewBuilder("customers", []string{"cid", "region", "tier"})
	ob := table.NewBuilder("orders", []string{"oid", "cid", "amount"})
	ib := table.NewBuilder("items", []string{"oid", "price"})
	oid := 0
	for cid := 0; cid < customers; cid++ {
		heavy := cid < customers/10
		if err := cb.AppendRow([]string{strconv.Itoa(cid), regions[rng.Intn(len(regions))], strconv.Itoa(cid % 3)}); err != nil {
			return nil, err
		}
		orders := 1 + rng.Intn(6)
		if heavy {
			orders = 12 + rng.Intn(12)
		}
		for o := 0; o < orders; o++ {
			amount := 10 + rng.Intn(50)
			if heavy {
				amount += 40
			}
			if err := ob.AppendRow([]string{strconv.Itoa(oid), strconv.Itoa(cid), strconv.Itoa(amount)}); err != nil {
				return nil, err
			}
			items := 1 + rng.Intn(3)
			if amount >= 60 {
				items += 2
			}
			for i := 0; i < items; i++ {
				if err := ib.AppendRow([]string{strconv.Itoa(oid), strconv.Itoa(5 * rng.Intn(12))}); err != nil {
					return nil, err
				}
			}
			oid++
		}
	}
	var tables []*table.Table
	for _, b := range []*table.Builder{cb, ob, ib} {
		t, err := b.Build()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return &neurocard.Schema{
		Tables: tables,
		Edges: []neurocard.Edge{
			{Parent: 0, Child: 1, ParentCol: 0, ChildCol: 1},
			{Parent: 1, Child: 2, ParentCol: 0, ChildCol: 0},
		},
	}, nil
}

// trainJoin trains the join tenant's estimator with the `narubench join`
// configuration at its default seed and epochs. reg receives the
// estimator's counters.
func trainJoin(sch *neurocard.Schema, sc scale, reg *naru.Metrics) (*neurocard.Estimator, error) {
	est, _, err := neurocard.Train(context.Background(), sch, neurocard.Config{
		Hidden: []int{64, 64}, Samples: joinSamples, Seed: joinSeed,
		Epochs: sc.joinEpochs, BatchSize: 256, EpochTuples: 1 << 14, LR: 3e-3,
		Workers: trainWorkers, Obs: reg,
	})
	return est, err
}

// joinPool draws n distinct join queries over the sampler's layout table lt,
// anchored at sampled join tuples (1-3 predicates over base columns), and
// labels each with the exact nested-loop oracle. Queries whose truth is under
// 20 rows are redrawn.
func joinPool(smp *neurocard.Sampler, lt *table.Table, oracle *neurocard.Oracle, n int) ([]labelled, error) {
	rng := rand.New(rand.NewSource(joinPoolSeed))
	type cand struct {
		col    int
		ranged bool
	}
	var cands []cand
	for i, lc := range smp.Layout().Cols {
		if lc.Edge < 0 {
			cands = append(cands, cand{col: i, ranged: lt.Cols[i].DomainSize() > 8})
		}
	}
	nc := smp.NumCols()
	anchors := smp.Batch(joinPoolSeed+1, 20*n)
	seen := map[string]bool{}
	var out []labelled
	for a := 0; len(out) < n; a++ {
		if a >= 20*n {
			return nil, fmt.Errorf("only %d of %d join queries cleared the truth floor", len(out), n)
		}
		anchor := anchors[a*nc : (a+1)*nc]
		var q query.Query
		for _, ci := range rng.Perm(len(cands))[:1+rng.Intn(3)] {
			c := cands[ci]
			op := query.OpEq
			if c.ranged {
				op = query.OpLe
				if rng.Intn(2) == 0 {
					op = query.OpGe
				}
			}
			q.Preds = append(q.Preds, query.Predicate{Col: c.col, Op: op, Code: anchor[c.col]})
		}
		where := q.String(lt)
		if seen[where] {
			continue
		}
		back, err := query.ParseWhere(where, lt)
		if err != nil || back.String(lt) != where {
			continue
		}
		truth, err := oracle.Count(smp, back)
		if err != nil {
			return nil, err
		}
		if truth < 20 {
			continue
		}
		seen[where] = true
		out = append(out, labelled{where: where, truth: truth})
	}
	return out, nil
}

// stack is one assembled serving configuration: the estimator and, for the
// HTTP workloads, the server and its handler. Every stack reports into a
// naru.Metrics registry of its own, as `naru serve -metrics-addr` does, so a
// traced and an untraced stack differ only in the timedModel and the spans.
type stack struct {
	est *naru.Estimator
	srv *server.Server
	h   http.Handler
	reg *naru.Metrics
	tr  *tracer // nil when untraced
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}

// serveModel returns the model a stack serves: the trained model itself, or
// a timedModel around it when traced.
func serveModel(m *made.Model, tr *tracer) core.Trainable {
	if tr == nil {
		return m
	}
	return newTimedModel(m, tr)
}

// newBulkStack builds the dmv-bulk estimator: the facade over the trained
// model, S=1000, no server.
func newBulkStack(m *made.Model, t *table.Table, tr *tracer, reg *naru.Metrics) *stack {
	est := naru.NewFromModel(serveModel(m, tr), t, naru.Config{Samples: openSamples, Seed: serveSeed, Metrics: reg})
	return &stack{est: est, reg: reg, tr: tr}
}

// newOpenStack builds the dmv-open server: one DMV tenant behind the request
// coalescer, configured like `naru serve -batch-window 2ms -workers 1` with
// the default result cache. Each dispatch walks on one core and the two
// in-flight dispatches share the box. Workers = NumCPU would add
// row-parallel sections that wait on both vCPUs, and on a host that steals
// CPU time from its guests that multiplied the latency spread across runs.
func newOpenStack(m *made.Model, t *table.Table, tr *tracer, reg *naru.Metrics) (*stack, error) {
	est := naru.NewFromModel(serveModel(m, tr), t, naru.Config{Samples: openSamples, Seed: serveSeed})
	tn := server.NewTenant(tenantDMV, est, t, server.TenantOptions{
		Serve:       naru.ServeOptions{Workers: openWorkers},
		BatchWindow: batchWindow,
		MaxInFlight: maxInFlight,
		Metrics:     reg.WithLabel("tenant", tenantDMV),
	})
	return startServer(reg, tr, est, nil, tn)
}

// newMixedStack builds the mixed-rw server: a DMV tenant in the default
// `naru serve` shape (S=2000, no coalescer, default result cache) with
// ingestion on, beside the 3-table join tenant.
func newMixedStack(m *made.Model, t *table.Table, join *neurocard.Estimator, tr *tracer, reg *naru.Metrics) (*stack, error) {
	view := reg.WithLabel("tenant", tenantDMV)
	est := naru.NewFromModel(serveModel(m, tr), t, naru.Config{Samples: serveSamples, Seed: serveSeed})
	// Attach the registry first so the lifecycle manager reports into it.
	est.SetMetrics(view)
	// Zero thresholds: appends are ingested and drift-scored, but the model
	// is never marked stale, so no refresh runs during the measurement.
	if err := est.EnableLifecycle(t, naru.LifecycleConfig{}); err != nil {
		return nil, err
	}
	tn := server.NewTenant(tenantDMV, est, t, server.TenantOptions{Metrics: view})
	return startServer(reg, tr, est, join, tn)
}

// startServer registers the tenants on a fresh server, starts it, and
// returns the stack serving its handler.
func startServer(reg *naru.Metrics, tr *tracer, est *naru.Estimator, join *neurocard.Estimator, tn *server.Tenant) (*stack, error) {
	srv := server.New(server.Options{Metrics: reg})
	if err := srv.Add(tn); err != nil {
		return nil, err
	}
	if join != nil {
		if err := srv.AddJoin(server.NewJoinTenant(tenantJoin, join)); err != nil {
			return nil, err
		}
	}
	srv.Start(context.Background())
	return &stack{est: est, srv: srv, h: srv.Handler(), reg: reg, tr: tr}, nil
}

// setupTime is the median process CPU time and median wall time of a run's
// set-ups, in seconds.
type setupTime struct{ cpu, wall float64 }

// timedSetups runs build reps times and returns the last result with the
// median CPU and wall time; earlier results are closed. build must do every
// piece of program work the workload needs before its first timed request.
func timedSetups[T interface{ close() }](reps int, build func() (T, error)) (T, setupTime, error) {
	var last T
	cpus := make([]float64, 0, reps)
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		before := readProcStats()
		v, err := build()
		if err != nil {
			return last, setupTime{}, err
		}
		var u usage
		u.add(before, readProcStats())
		cpus, walls = append(cpus, u.busy), append(walls, u.wall)
		if i > 0 {
			last.close()
		}
		last = v
	}
	sort.Float64s(cpus)
	sort.Float64s(walls)
	// Start the measurement from a collected heap with the set-ups' garbage
	// returned to the OS, so the runtime's background scavenger does not
	// spend CPU time on it during the measurement.
	debug.FreeOSMemory()
	return last, setupTime{cpu: median(cpus), wall: median(walls)}, nil
}

// setSetup reports setup_s, the median CPU time of the run's set-ups, with
// their median wall time beside it.
func setSetup(r *result, st setupTime, reps int, what string) {
	r.set("setup_s", st.cpu, fmt.Sprintf("process CPU, median of %d set-ups (%s); median wall %.3f s", reps, what, st.wall))
}
