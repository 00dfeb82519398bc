// Command perfbench is the epoch-pipeline benchmark: it builds a real key
// server in process, persists it through the durable store, serves it over
// loopback TCP and drives closed-loop epochs through it while two probe
// members check every new group key. See README.md.
//
//	perfbench --workload paper-tt-64k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones and the
// spans are written to --spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

func main() {
	os.Exit(mainRC())
}

func mainRC() int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper-tt-64k, revoke-onetree-100k or groups-64x1k")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.scheme, "scheme", "", "scheme override: tt or onetree")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --workload is required")
		return 2
	}
	cfg.trace = trace == 1
	cfg.setups = setups
	if cfg.trace && cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans/%s-%d.json", cfg.workload, cfg.seed)
	}
	cfg.log = os.Stderr
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	correct := err == nil && res.failed == 0
	fmt.Printf("workload %s seed %d scheme-override %q measured epochs %d\n", cfg.workload, cfg.seed, cfg.scheme, res.epochs)
	fmt.Printf("payload digest %s\n", res.digest)
	var shown []metric
	if err == nil {
		shown = res.e2e
		if cfg.trace {
			shown = res.layers
			fmt.Printf("spans %d, accounting violations %d %s\n", res.spanCount, res.violations, res.firstViolation)
		}
		all := append(append(append([]metric(nil), res.e2e...), res.extra...), res.layers...)
		for _, m := range all {
			fmt.Printf("%-28s %14.6f %s\n", m.name, m.value, m.unit)
		}
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, m := range shown {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
