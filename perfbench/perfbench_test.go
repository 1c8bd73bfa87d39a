package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	naru "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/made"
	"repro/internal/query"
	"repro/internal/table"
)

// smokeScale runs every workload in seconds.
var smokeScale = scale{
	dmvRows:       2000,
	dmvEpochs:     1,
	setupReps:     1,
	bulkQueries:   12,
	estPool:       32,
	joinCustomers: 100,
	joinEpochs:    1,
	appendRows:    4,
}

// TestTimedModelInterfaces pins the wrapper to the bare model's optional
// interfaces: a missing one would send the walk down a different path.
func TestTimedModelInterfaces(t *testing.T) {
	ifaces := []reflect.Type{
		reflect.TypeOf((*core.Forkable)(nil)).Elem(),
		reflect.TypeOf((*core.SequentialModel)(nil)).Elem(),
		reflect.TypeOf((*core.BlockModel)(nil)).Elem(),
		reflect.TypeOf((*core.BlockRowAdvancer)(nil)).Elem(),
		reflect.TypeOf((*core.BlockRowDecoder)(nil)).Elem(),
		reflect.TypeOf((*core.WildcardSkipper)(nil)).Elem(),
		reflect.TypeOf((*core.Trainable)(nil)).Elem(),
	}
	bare, wrapped := reflect.TypeOf(&made.Model{}), reflect.TypeOf(&timedModel{})
	for _, it := range ifaces {
		if !bare.Implements(it) {
			t.Errorf("*made.Model no longer implements %v; update the wrapper and this list", it)
		}
		if !wrapped.Implements(it) {
			t.Errorf("timedModel does not implement %v", it)
		}
	}
}

// smallModel trains a small DMV model and returns it with its table and a
// handful of compiled queries.
func smallModel(t *testing.T) (*made.Model, *table.Table, []*naru.Region, []naru.Query) {
	t.Helper()
	tbl := datagen.DMV(smokeScale.dmvRows, dataSeed)
	m, _, err := trainDMV(tbl, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dmvPool(tbl, 16)
	if err != nil {
		t.Fatal(err)
	}
	var regs []*naru.Region
	var qs []naru.Query
	for _, l := range pool {
		q, err := query.ParseWhere(l.where, tbl)
		if err != nil {
			t.Fatal(err)
		}
		regs, qs = append(regs, l.reg), append(qs, q)
	}
	return m, tbl, regs, qs
}

// TestTimedModelBitIdentical checks that serving through the wrapper changes
// no answer on any entry point, and that its replicas stay wrapped.
func TestTimedModelBitIdentical(t *testing.T) {
	m, tbl, regs, qs := smallModel(t)
	tr := newTracer()
	if _, ok := newTimedModel(m, tr).ForkModel().(*timedModel); !ok {
		t.Fatal("ForkModel of the wrapper returned an unwrapped replica")
	}
	newEst := func(traced bool) *naru.Estimator {
		var tm core.Trainable = m
		if traced {
			tm = newTimedModel(m, tr)
		}
		return naru.NewFromModel(tm, tbl, naru.Config{Samples: 300, Seed: serveSeed})
	}
	ctx := context.Background()
	entries := map[string]func(*naru.Estimator) []naru.Result{
		"fused W=1": func(e *naru.Estimator) []naru.Result {
			return e.EstimateFused(ctx, regs, naru.ServeOptions{Workers: 1})
		},
		"fused W=NumCPU": func(e *naru.Estimator) []naru.Result {
			return e.EstimateFused(ctx, regs, naru.ServeOptions{Workers: runtime.NumCPU()})
		},
		"per-query": func(e *naru.Estimator) []naru.Result {
			return e.EstimateBatchCtx(ctx, regs, naru.ServeOptions{Workers: 1})
		},
		"coalesced": func(e *naru.Estimator) []naru.Result {
			c := e.NewCoalescer(naru.CoalesceOptions{Serve: naru.ServeOptions{Workers: runtime.NumCPU()}})
			defer c.Close()
			out := make([]naru.Result, len(qs))
			for i, q := range qs { // one at a time, so dispatch order is fixed
				out[i] = c.Estimate(ctx, q)
			}
			return out
		},
	}
	for name, run := range entries {
		plain, timed := run(newEst(false)), run(newEst(true))
		for i := range plain {
			if plain[i].Source != naru.SourceModel {
				t.Fatalf("%s query %d: %s (%v)", name, i, plain[i].Source, plain[i].Err)
			}
			if !sameResult(plain[i], timed[i]) {
				t.Errorf("%s query %d: wrapped sel %v, bare %v", name, i, timed[i].Sel, plain[i].Sel)
			}
		}
	}
	wt := walkTimesOf(tr.snapshot())
	if wt.blocks == 0 || wt.byKind[spanDecode] == 0 || wt.byKind[spanAdvance] == 0 || wt.byKind[spanCond] == 0 {
		t.Fatalf("wrapped replicas recorded no walk: %d blocks, by kind %v", wt.blocks, wt.byKind)
	}
	if wt.covered > wt.walk {
		t.Fatalf("model calls cover %v of %v walk time", wt.covered, wt.walk)
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at a tiny
// scale and checks that it passes its own correctness checks and reports
// every metric.
func TestWorkloadsSmoke(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			cfg := runCfg{workload: name, seed: 3, seconds: 1, trace: trace, sc: smokeScale, spansDir: t.TempDir()}
			res := newResult()
			if err := workloads[name](cfg, res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			var out bytes.Buffer
			if err := res.write(&out, specs); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || len(rep.Metrics) != len(specs) {
				t.Fatalf("%s trace=%v: %s", name, trace, out.String())
			}
			if !trace {
				for _, s := range specs {
					if rep.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, s.name, rep.Metrics[s.name].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
