// Command benchmark is the repository's performance instrument: six named
// workloads, the same end-to-end metrics on each, and a traced mode that
// times every layer from outside. BENCHMARK.json at the root of the
// repository declares the workloads, metrics and bounds; README.md in this
// directory says why each exists and how to read the output.
//
//	bash benchmark/run.sh --workload plan.job --seed 42 --seconds 10 --trace 0
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object (this is what BENCHMARK.json's command is)
//	bash benchmark/run.sh -seed 42 [-trace 1] [-runs N]
//	    every workload, each in a child process of its own, with the full
//	    correctness gate; writes benchmark/out/result.json
//	bash benchmark/run.sh -compare A.json B.json [A2.json B2.json ...]
//	bash benchmark/run.sh -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		runs     = flag.Int("runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
		trace    = flag.Int("trace", 0, "1: unroll every op into per-layer calls and report the per-layer metrics")
		list     = flag.Bool("list", false, "print workloads, metrics, units and bounds from BENCHMARK.json")
		compare  = flag.Bool("compare", false, "compare result files given as arguments: parent change [parent change ...]")
		cfg      runConfig
	)
	flag.Int64Var(&cfg.seed, "seed", 42, "orders the requests; the worlds are always generated from seed 42")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "timed wall time per run (default: run_seconds of BENCHMARK.json)")
	flag.BoolVar(&cfg.full, "full", false, "with -workload: widen the sampled cross-checks to every query")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny worlds and a fraction of the queries: proves the paths, measures nothing")
	flag.BoolVar(&cfg.update, "update-expected", false, "with -workload: record this run's sums in expected/seed42.json")
	flag.Parse()

	err := func() error {
		spec, root, err := loadSpec()
		if err != nil {
			return err
		}
		switch {
		case *list:
			spec.list(os.Stdout)
			return nil
		case *compare:
			return compareFiles(os.Stdout, spec, flag.Args())
		case *trace != 0 && *trace != 1:
			return fmt.Errorf("-trace takes 0 or 1, not %d", *trace)
		}
		if cfg.seconds <= 0 {
			cfg.seconds = float64(spec.RunSeconds)
		}
		cfg.trace = *trace == 1
		cfg.outDir = filepath.Join(root, "benchmark", "out")
		if *workload == "" {
			return runAll(spec, cfg, *runs)
		}
		return runOne(spec, cfg, *workload, filepath.Join(root, "benchmark"))
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result; a run
// that fails the correctness gate still prints, then fails.
func runOne(spec *specFile, cfg runConfig, workload, benchDir string) error {
	def, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", workload)
	}
	exp, err := loadExpected(benchDir)
	if err != nil {
		return err
	}
	if cfg.update && workload == "truth.cold" {
		for name := range exp.Reports {
			exp.Reports[name] = "" // an empty hash is recorded, not compared
		}
	}
	res, err := runWorkload(def, cfg, spec, exp)
	if err != nil {
		return err
	}
	if cfg.update {
		if err := exp.save(benchDir); err != nil {
			return err
		}
	}
	printResult(res)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", workload, res.Failed, res.Attempted)
	}
	return nil
}

// printResult prints every metric by name with its unit, any failures, and
// last the one-line JSON object the driver reads.
func printResult(res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v\n", res.Workload, res.Seed, res.Trace)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Printf("%s\n", line)
}
