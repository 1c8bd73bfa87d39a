// Command perfbench is the repository's benchmark. It drives the Naru
// estimator only through public calls: the internal/server HTTP handler,
// invoked in process without sockets, and the facade's fused batch call. It
// checks every answer and prints the end-to-end metrics of one workload or,
// with --trace 1, the per-layer metrics, which it times from outside the
// program (a timing wrapper around the trained model, the program's own
// metrics registry, and spans around every call the benchmark makes).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload dmv-bulk --seed 1 --seconds 20 --trace 0
//
// Workloads: dmv-open (open-loop estimates against the coalescing DMV
// tenant at a fixed rate), dmv-bulk (the whole labelled set through the
// fused batch call at Workers=1) and mixed-rw (estimates, joins and appends
// against a two-tenant server). The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. A failed
// correctness check exits 1; a run that cannot start exits 2 without
// printing a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

var workloads = map[string]func(runCfg, *result) error{
	"dmv-open": runOpen,
	"dmv-bulk": runBulk,
	"mixed-rw": runMixed,
}

func main() {
	workload := flag.String("workload", "", "dmv-open | dmv-bulk | mixed-rw")
	seed := flag.Int64("seed", 1, "workload seed: arrival schedule, dmv-open and dmv-bulk query order, appended rows")
	seconds := flag.Float64("seconds", 20, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from paired untraced and traced passes")
	root := flag.String("root", ".", "repository root, hashed into the provenance line")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its span log to")
	capacity := flag.Bool("capacity", false, "measure the saturated throughput of --workload (dmv-open or mixed-rw) and exit")
	flag.Parse()

	if *capacity {
		qps, err := measureCapacity(*workload, *seconds, 32)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Printf("capacity of %s: %.2f requests/s (32 closed-loop clients)\n", *workload, qps)
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload dmv-open|dmv-bulk|mixed-rw, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale, spansDir: *spansDir}
	prov, _ := json.Marshal(newProvenance(*root, *workload, *seed, *seconds, cfg.trace))
	fmt.Printf("# provenance %s\n", prov)

	res := newResult()
	if err := run(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	if err := res.write(os.Stdout, specs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}
