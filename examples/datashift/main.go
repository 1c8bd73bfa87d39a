// Data shift: ingest a table partition by partition and watch a stale Naru
// model degrade gracefully while a periodically refreshed one stays sharp —
// the §6.7.3 experiment as a runnable demo. The refreshed model ingests each
// partition through its lifecycle manager and fine-tunes on the grown
// snapshot with RefreshCtx.
//
//	go run ./examples/datashift
package main

import (
	"context"
	"fmt"
	"log"

	naru "repro"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/query"
)

func main() {
	full := datagen.DMV(50000, 1).SortByColumn(6) // partition by valid_date
	const parts = 5
	per := full.NumRows() / parts

	first := full.SliceRows(0, per)
	cfg := naru.DefaultConfig()
	cfg.Epochs = 6
	cfg.Samples = 2000

	stale, err := naru.Build(first, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Lifecycle = &naru.LifecycleConfig{RefreshEpochs: 3}
	refreshed, err := naru.Build(first, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Queries drawn from the first partition's tuples, as in the paper.
	gen := query.NewGenerator(first, query.DefaultGeneratorConfig(), 9)
	queries := make([]naru.Query, 60)
	for i := range queries {
		queries[i] = gen.Next()
	}

	fmt.Printf("%-10s %22s %22s\n", "ingested", "stale (p90 / max)", "refreshed (p90 / max)")
	for p := 1; p <= parts; p++ {
		hi := p * per
		if p == parts {
			hi = full.NumRows()
		}
		ingested := full.SliceRows(0, hi)
		if p > 1 {
			// SliceRows shares the full table's dictionaries, so the new
			// partition's codes are valid in the refreshed model's snapshot.
			lo := (p - 1) * per
			codes := make([]int32, 0, (hi-lo)*full.NumCols())
			row := make([]int32, full.NumCols())
			for r := lo; r < hi; r++ {
				full.Row(r, row)
				codes = append(codes, row...)
			}
			if _, err := refreshed.AppendCodes(codes, hi-lo); err != nil {
				log.Fatal(err)
			}
			if _, err := refreshed.RefreshCtx(context.Background()); err != nil {
				log.Fatal(err)
			}
		}
		staleErrs := evalAll(stale, queries, ingested)
		freshErrs := evalAll(refreshed, queries, ingested)
		fmt.Printf("%-10d %10.2f / %7.2f %12.2f / %7.2f\n", p,
			metrics.Quantile(staleErrs, 0.9), metrics.Quantile(staleErrs, 1),
			metrics.Quantile(freshErrs, 0.9), metrics.Quantile(freshErrs, 1))
	}
}

func evalAll(est *naru.Estimator, queries []naru.Query, t *naru.Table) []float64 {
	n := float64(t.NumRows())
	errs := make([]float64, 0, len(queries))
	for _, q := range queries {
		sel, err := est.Selectivity(q)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := naru.TrueSelectivity(q, t)
		if err != nil {
			log.Fatal(err)
		}
		errs = append(errs, metrics.QError(sel*n, truth*n))
	}
	return errs
}
