// Command jobench drives the Join Order Benchmark reproduction: generate
// the data set, explain and run individual queries, and regenerate every
// table and figure of Leis et al., "How Good Are Query Optimizers, Really?"
// (VLDB 2015).
//
// Usage:
//
//	jobench gen        [-workload imdb] [-scale 1.0] [-seed 42]
//	jobench sql        -q 13d
//	jobench graph      -q 13d
//	jobench explain    -q 13d [-analyze] [-est postgres] [-model simple] [-idx pkfk] [-scale 0.3]
//	jobench run        -q 13d [-est postgres] [-model simple] [-idx pkfk] [-rehash] [-no-nlj]
//	                   [-reopt] [-qerr 2] [-max-replans 4]
//	jobench experiment -name table1|fig3|fig4|fig5|sec41|fig6|fig7|fig8|fig9|table2|table3|all
//	                   [-scale 0.3] [-samples 10000] [-max-queries 0] [-parallel N]
//	jobench snapshot   build|inspect|clear [-workload imdb] [-cache-dir .jobench-cache]
//	                   [-scale 0.3] [-seed 42]
//	jobench serve      [-addr :8080] [-pool 2] [-workload imdb] [-scale 0.3] [-seed 42] [-cache-dir DIR]
//	                   [-feedback-bytes N] [-replica-id ID] [-peers URL,URL,...] [-self URL]
//	                   [-slow-query-ms N] [-log-level info] [-pprof 127.0.0.1:6060]
//	jobench router     -replicas URL,URL,... [-addr :8070] [-inflight 32]
//	                   [-slow-query-ms N] [-log-level info] [-pprof 127.0.0.1:6070]
//	jobench loadgen    [-target http://localhost:8070] [-duration 10s] [-concurrency 8]
//	                   [-mix optimize=4,execute=2,estimate=3,experiment=1] [-out BENCH_service.json]
//
// "jobench serve" runs the benchmark-as-a-service layer: warm System
// instances stay resident in an LRU pool and answer /v1/optimize,
// /v1/execute, /v1/explain, /v1/estimate, /v1/queries and
// /v1/experiment/{name} concurrently, with /healthz, /metrics and
// /v1/traces (recent request traces, propagated end-to-end via the
// X-Jobench-Trace header) as the ops surface. It shuts
// down gracefully on SIGINT/SIGTERM, cancelling in-flight work. Given
// -peers and -self it also joins a replica fleet: report-cache misses
// peek at the consistent-hash owner before computing.
//
// "jobench run -reopt" executes adaptively: plan subtrees run first as
// probes, observed intermediate cardinalities replace estimates whose
// q-error exceeds -qerr (triggering up to -max-replans re-optimizations),
// and the observations feed the plan-feedback cache. The service offers
// the same via the "adaptive" request field; "serve -feedback-bytes"
// bounds each resident instance's feedback cache.
//
// "jobench router" fronts N serve replicas with consistent hashing on
// (workload, seed, scale) so each replica's system pool stays hot; it health-checks
// replicas, marks them down on consecutive failures, fails transport
// errors over to the next live candidate, and serves its own /healthz and
// /metrics. "jobench loadgen" replays a mixed optimize/execute/estimate/
// experiment workload against a router (or single replica) and writes
// throughput plus latency percentiles to a JSON artifact. See
// docs/OPERATIONS.md for the full three-process topology.
//
// Every command accepts -parallel N to size the worker pool that fans
// experiment cells out across cores (0 = all cores, 1 = serial); the same
// setting parallelizes the per-subexpression work inside each
// true-cardinality computation, so "snapshot build" and single-query
// warmups scale with cores too. Reports are byte-identical at any
// setting. Every command also accepts
// -cache-dir DIR to load the generated database, statistics, and true
// cardinalities from the persistent snapshot store (and persist whatever
// this run computes); "jobench snapshot build" fills that store up front.
// -workload selects the benchmark world (imdb, the default JOB
// reproduction; tpch, a TPC-H-derived SPJ workload; imdb-skew, the IMDB
// generator with amplified skew and correlation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/fault"
	"jobench/internal/loadgen"
	"jobench/internal/router"
	"jobench/internal/service"
	"jobench/internal/snapshot"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = cmdGen(args)
	case "sql":
		err = cmdSQL(args)
	case "graph":
		err = cmdGraph(args)
	case "explain":
		err = cmdExplain(args)
	case "run":
		err = cmdRun(args)
	case "experiment":
		err = cmdExperiment(args)
	case "snapshot":
		err = cmdSnapshot(args)
	case "serve":
		err = cmdServe(args)
	case "router":
		err = cmdRouter(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "help", "-h", "-help", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "jobench: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobench:", err)
		os.Exit(1)
	}
}

// usage prints the full subcommand synopsis. Both a bare "jobench" and an
// unknown subcommand land here (and exit 2).
func usage() {
	fmt.Fprintf(os.Stderr, `usage: jobench <command> [flags]

Commands:
  gen         generate the data set and print table sizes
  sql         print a workload query as SQL
  graph       print a query's join graph (Graphviz dot)
  explain     optimize a query and print the plan (-analyze executes it
              and prints estimated vs measured rows per operator)
  run         optimize and execute a query (-reopt for adaptive re-optimization)
  experiment  reproduce the paper's tables and figures (%s|all)
  snapshot    manage the persistent snapshot store (build|inspect|clear)
  serve       run the benchmark HTTP service (system pool + report cache)
  router      front N serve replicas with consistent hashing on (workload, seed, scale)
  loadgen     replay mixed traffic, write latency histograms + throughput JSON
  help        print this synopsis

Examples:
  jobench serve   -addr :8081 -cache-dir .jobench-cache
  jobench router  -addr :8070 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
  jobench loadgen -target http://127.0.0.1:8070 -duration 10s -out BENCH_service.json

Run "jobench <command> -h" for command flags. Every command accepts
-workload NAME (imdb|tpch|imdb-skew), -parallel N (worker-pool size;
0 = all cores) and -cache-dir DIR (the persistent snapshot store).
`, strings.Join(experiments.Names(), "|"))
}

func openFlags(fs *flag.FlagSet) (*string, *float64, *int64, *int, *string) {
	wl := fs.String("workload", "", "benchmark workload: imdb|tpch|imdb-skew (empty = imdb)")
	scale := fs.Float64("scale", 0.3, "data scale factor (1.0 ~ 450k rows)")
	seed := fs.Int64("seed", 42, "generator seed")
	parallel := fs.Int("parallel", 0, "worker-pool size for experiment sweeps and the truecard DP (0 = all cores, 1 = serial)")
	cacheDir := fs.String("cache-dir", "", "snapshot cache directory (empty = no caching)")
	return wl, scale, seed, parallel, cacheDir
}

func planFlags(fs *flag.FlagSet) (est, model, idx *string, noNLJ *bool, shape, algo *string) {
	est = fs.String("est", "postgres", "estimator: postgres|dbms-a|dbms-b|dbms-c|hyper|true")
	model = fs.String("model", "simple", "cost model: simple|postgres|tuned")
	idx = fs.String("idx", "pkfk", "index config: none|pk|pkfk")
	noNLJ = fs.Bool("no-nlj", true, "disable non-indexed nested-loop joins")
	shape = fs.String("shape", "bushy", "tree shape: bushy|leftdeep|rightdeep|zigzag")
	algo = fs.String("algo", "dp", "enumeration: dp|dpccp|quickpick|goo")
	return
}

// parsePlanOptions delegates to the facade's shared knob vocabulary (the
// service's JSON API accepts exactly the same strings).
func parsePlanOptions(est, model, idx string, noNLJ bool, shape, algo string) (jobench.PlanOptions, error) {
	return jobench.MakePlanOptions(est, model, idx, noNLJ, shape, algo)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)
	sys, err := jobench.Open(jobench.Options{Workload: *wl, Scale: *scale, Seed: *seed, Parallel: *par, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	total := 0
	rows := sys.TableRows()
	// The IMDB-shaped workloads print in the schema's conventional order;
	// any other workload lists its tables alphabetically.
	names := []string{
		"kind_type", "info_type", "company_type", "role_type", "link_type",
		"comp_cast_type", "title", "company_name", "keyword", "name",
		"char_name", "movie_companies", "movie_info", "movie_info_idx",
		"movie_keyword", "cast_info", "aka_name", "aka_title", "movie_link",
		"person_info", "complete_cast",
	}
	if _, ok := rows["title"]; !ok {
		names = names[:0]
		for name := range rows {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	fmt.Printf("%-18s %10s\n", "table", "rows")
	for _, name := range names {
		fmt.Printf("%-18s %10d\n", name, rows[name])
		total += rows[name]
	}
	fmt.Printf("%-18s %10d\n", "TOTAL", total)
	fmt.Printf("\nworkload: %d queries\n", len(sys.QueryIDs()))
	return nil
}

func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	q := fs.String("q", "13d", "query id")
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)
	sys, err := jobench.Open(jobench.Options{Workload: *wl, Scale: *scale, Seed: *seed, Parallel: *par, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	sql, err := sys.SQL(*q)
	if err != nil {
		return err
	}
	fmt.Println(sql)
	return nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	q := fs.String("q", "13d", "query id")
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)
	sys, err := jobench.Open(jobench.Options{Workload: *wl, Scale: *scale, Seed: *seed, Parallel: *par, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	dot, err := sys.JoinGraphDot(*q)
	if err != nil {
		return err
	}
	fmt.Print(dot)
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	q := fs.String("q", "13d", "query id")
	analyze := fs.Bool("analyze", false, "execute the plan and print measured per-operator cardinalities (EXPLAIN ANALYZE)")
	limit := fs.Int64("work-limit", 0, "abort an -analyze execution after this many work units")
	est, model, idx, noNLJ, shape, algo := planFlags(fs)
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)
	sys, err := jobench.Open(jobench.Options{Workload: *wl, Scale: *scale, Seed: *seed, Parallel: *par, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	opts, err := parsePlanOptions(*est, *model, *idx, *noNLJ, *shape, *algo)
	if err != nil {
		return err
	}
	if *analyze {
		text, err := sys.ExplainAnalyze(*q, jobench.RunOptions{
			PlanOptions: opts, Rehash: true, WorkLimit: *limit,
		})
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	text, cost, err := sys.Optimize(*q, opts)
	if err != nil {
		return err
	}
	fmt.Print(text)
	fmt.Printf("estimated cost: %.2f (%s model, %s estimates)\n", cost, *model, *est)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	q := fs.String("q", "13d", "query id")
	est, model, idx, noNLJ, shape, algo := planFlags(fs)
	rehash := fs.Bool("rehash", true, "resize hash tables at runtime")
	limit := fs.Int64("work-limit", 0, "abort after this many work units")
	adaptive := fs.Bool("reopt", false, "execute adaptively: probe intermediates, replan on misestimates, record feedback")
	qerr := fs.Float64("qerr", 0, "q-error threshold that triggers a replan (0 = default 2); needs -reopt")
	maxReplans := fs.Int("max-replans", 0, "re-optimizations per query (0 = default 4); needs -reopt")
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)
	sys, err := jobench.Open(jobench.Options{Workload: *wl, Scale: *scale, Seed: *seed, Parallel: *par, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	opts, err := parsePlanOptions(*est, *model, *idx, *noNLJ, *shape, *algo)
	if err != nil {
		return err
	}
	start := time.Now()
	var res jobench.Result
	if *adaptive {
		ares, err := sys.ExecuteAdaptive(*q, jobench.AdaptiveOptions{
			RunOptions:    jobench.RunOptions{PlanOptions: opts, Rehash: *rehash, WorkLimit: *limit},
			QErrThreshold: *qerr,
			MaxReplans:    *maxReplans,
		})
		if err != nil {
			return err
		}
		res = ares.Result
		fmt.Printf("adaptive: %d probes, %d replans, %d cardinalities pinned from feedback\n",
			ares.Probes, ares.Replans, ares.Pinned)
	} else {
		res, err = sys.Execute(*q, jobench.RunOptions{
			PlanOptions: opts, Rehash: *rehash, WorkLimit: *limit,
		})
		if err != nil {
			return err
		}
	}
	fmt.Print(res.Plan)
	if res.TimedOut {
		fmt.Printf("TIMED OUT after %d work units (%.1fms wall)\n",
			res.Work, float64(time.Since(start).Microseconds())/1000)
		return nil
	}
	truth, err := sys.TrueCardinality(*q)
	if err != nil {
		return err
	}
	fmt.Printf("rows: %d (true cardinality %.0f)\nwork: %d units, %.1fms wall\n",
		res.Rows, truth, res.Work, float64(time.Since(start).Microseconds())/1000)
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	name := fs.String("name", "all", "experiment: table1|fig3|fig4|fig5|sec41|fig6|fig7|fig8|fig9|table2|table3|ablation-damping|ablation-rehash|hedging|all")
	samples := fs.Int("samples", 10000, "random plans per query for fig9")
	maxQ := fs.Int("max-queries", 0, "limit workload size (0 = all 113)")
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)

	lab, err := experiments.NewLab(experiments.Config{
		Workload: *wl, Scale: *scale, Seed: *seed, MaxQueries: *maxQ, Parallel: *par, CacheDir: *cacheDir,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "computing true cardinalities for %d queries...\n", len(lab.Queries))
	start := time.Now()
	if err := lab.Warmup(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "done in %v\n\n", time.Since(start).Round(time.Millisecond))

	// The shared registry maps names to drivers; the service's
	// /v1/experiment/{name} resolves the very same entries, which is what
	// keeps both surfaces byte-identical.
	params := experiments.Params{Samples: *samples}
	matched := false
	for _, e := range experiments.Registry() {
		if *name != "all" && *name != e.Name {
			continue
		}
		matched = true
		t0 := time.Now()
		res, err := e.Run(context.Background(), lab, params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("=== %s (%v) ===\n%s\n", e.Name, time.Since(t0).Round(time.Millisecond), res.Render())
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (%s|all)", *name, strings.Join(experiments.Names(), "|"))
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	pool := fs.Int("pool", 2, "max resident (seed, scale) instances; least recently used is evicted")
	feedbackBytes := fs.Int64("feedback-bytes", 0, "per-instance plan-feedback cache budget in bytes (0 = default 1 MiB)")
	replicaID := fs.String("replica-id", "", "identity label exported at /metrics (jobench_replica_info)")
	peers := fs.String("peers", "", "comma-separated base URLs of every fleet replica (including this one); enables report-cache peer-fill")
	self := fs.String("self", "", "this replica's own entry in -peers (required with -peers)")
	slowMS := fs.Float64("slow-query-ms", 0, "log a span summary for requests at least this slow (0 disables)")
	maxQueue := fs.Int("max-queue", 0, "experiment admission-queue cap; arrivals past it are shed with 429 (0 = default 16)")
	faultSpec := fs.String("fault-spec", "", "fault-injection spec for chaos runs, e.g. 'route=/v1/execute,error=0.1,latency=50ms' (empty = injection compiled out)")
	faultSeed := fs.Int64("fault-seed", 0, "seed for the fault spec's random draws (0 = the spec's own seed)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra address (e.g. 127.0.0.1:6060); never on the public listener")
	logLevel := logFlags(fs)
	wl, scale, seed, par, cacheDir := openFlags(fs)
	fs.Parse(args)

	if (*peers == "") != (*self == "") {
		return fmt.Errorf("serve: -peers and -self must be set together")
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	spec, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if spec != nil && *faultSeed != 0 {
		spec.Seed = *faultSeed
	}
	injector := fault.New(spec) // nil spec -> nil injector -> zero request-path cost
	if injector != nil {
		logger.Warn("fault injection ACTIVE — this replica will misbehave on purpose", "spec", *faultSpec)
	}
	startPprof(*pprofAddr, logger)
	// SIGINT/SIGTERM cancel the context; the server stops listening,
	// cancellation propagates into in-flight truecard/experiment work, and
	// handlers get a grace period to flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := service.New(service.Config{
		Addr:            *addr,
		DefaultWorkload: *wl,
		DefaultSeed:     *seed,
		DefaultScale:    *scale,
		Parallel:        *par,
		CacheDir:        *cacheDir,
		PoolSize:        *pool,
		FeedbackBytes:   *feedbackBytes,
		ReplicaID:       *replicaID,
		Peers:           splitList(*peers),
		SelfURL:         *self,
		SlowQuery:       time.Duration(*slowMS * float64(time.Millisecond)),
		MaxQueue:        *maxQueue,
		Fault:           injector,
		Logger:          logger,
	})
	return srv.ListenAndServe(ctx)
}

func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	addr := fs.String("addr", ":8070", "listen address")
	replicas := fs.String("replicas", "", "comma-separated base URLs of the serve replicas (required)")
	inflight := fs.Int("inflight", 32, "max in-flight forwards per replica; excess requests queue")
	healthEvery := fs.Duration("health-interval", 2*time.Second, "period of the per-replica /healthz probe")
	markDown := fs.Int("mark-down-after", 2, "consecutive failures that mark a replica down")
	requestTimeout := fs.Duration("request-timeout", 0, "end-to-end deadline minted per request as X-Jobench-Deadline (0 = forward timeout)")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "per-attempt bound so a hung replica burns one attempt, not the whole deadline (0 = request timeout)")
	maxRetries := fs.Int("max-retries", 2, "max re-attempts per request (transport errors and retryable 5xx)")
	retryBudget := fs.Float64("retry-budget", 0.2, "per-client retry tokens earned per request (bucket capped at 10)")
	slowMS := fs.Float64("slow-query-ms", 0, "log a span summary for forwarded requests at least this slow (0 disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra address (e.g. 127.0.0.1:6070); never on the public listener")
	logLevel := logFlags(fs)
	fs.Parse(args)

	logger, err := buildLogger(*logLevel)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	startPprof(*pprofAddr, logger)
	srv, err := router.New(router.Config{
		Addr:               *addr,
		Replicas:           splitList(*replicas),
		InFlightPerReplica: *inflight,
		HealthInterval:     *healthEvery,
		MarkDownAfter:      *markDown,
		RequestTimeout:     *requestTimeout,
		AttemptTimeout:     *attemptTimeout,
		MaxRetries:         *maxRetries,
		RetryBudget:        *retryBudget,
		SlowQuery:          time.Duration(*slowMS * float64(time.Millisecond)),
		Logger:             logger,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.ListenAndServe(ctx)
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	target := fs.String("target", "http://127.0.0.1:8070", "router or replica base URL")
	duration := fs.Duration("duration", 10*time.Second, "how long the workers fire")
	concurrency := fs.Int("concurrency", 8, "number of concurrent request loops")
	mixSpec := fs.String("mix", "optimize=4,execute=2,estimate=3,experiment=1",
		"request-class weights, class=weight comma-separated (classes: optimize|execute|estimate|experiment|reopt)")
	out := fs.String("out", "BENCH_service.json", "result artifact path (- for stdout)")
	loadSeed := fs.Int64("load-seed", 1, "seed for the generator's random choices")
	queries := fs.String("queries", "", "comma-separated workload ids (default: fetch from target)")
	expNames := fs.String("experiments", "fig3", "comma-separated experiment names for the experiment class")
	worldSeeds := fs.String("world-seeds", "", "comma-separated generator seeds to spread the load across (overrides -seed; the experiment class always uses the first)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline, enforced client-side and sent as X-Jobench-Deadline (0 = none)")
	deadlineGrace := fs.Duration("deadline-grace", 0, "slack over -request-timeout before a request counts as a deadline overrun (default 500ms)")
	logLevel := logFlags(fs)
	wl, scale, seed, _, _ := openFlags(fs)
	fs.Parse(args)

	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	var seeds []int64
	for _, s := range splitList(*worldSeeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("loadgen: invalid world seed %q", s)
		}
		seeds = append(seeds, v)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := loadgen.Run(ctx, loadgen.Config{
		Target:         *target,
		Duration:       *duration,
		Concurrency:    *concurrency,
		Mix:            mix,
		Seed:           *loadSeed,
		Workloads:      splitList(*wl),
		WorldSeed:      *seed,
		WorldSeeds:     seeds,
		Scale:          *scale,
		Queries:        splitList(*queries),
		Experiments:    splitList(*expNames),
		RequestTimeout: *requestTimeout,
		DeadlineGrace:  *deadlineGrace,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d requests (%d errors) at %.1f req/s, p50 %.1fms p99 %.1fms -> %s\n",
		res.Total.Requests, res.Total.Errors, res.Total.ThroughputRPS,
		res.Total.Latency.P50, res.Total.Latency.P99, *out)
	return nil
}

// splitList splits a comma-separated flag value, dropping empty entries
// (so an unset flag yields nil, not [""]).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseMix parses "class=weight,class=weight" into a loadgen mix.
func parseMix(spec string) (map[string]int, error) {
	mix := make(map[string]int)
	for _, part := range splitList(spec) {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: mix entry %q is not class=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: invalid weight in %q", part)
		}
		switch name {
		case loadgen.ClassOptimize, loadgen.ClassExecute, loadgen.ClassEstimate,
			loadgen.ClassExperiment, loadgen.ClassReopt:
		default:
			return nil, fmt.Errorf("loadgen: unknown class %q (optimize|execute|estimate|experiment|reopt)", name)
		}
		mix[name] = w
	}
	return mix, nil
}

// logFlags adds the structured-logging flags shared by the service
// commands (serve, router, loadgen).
func logFlags(fs *flag.FlagSet) *string {
	return fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
}

// buildLogger constructs the slog text logger the service commands hand
// to their Config.Logger fields.
func buildLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// startPprof serves net/http/pprof on its own mux and listener — never on
// the public address — when addr is non-empty.
func startPprof(addr string, logger *slog.Logger) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logger.Warn("pprof server stopped", "err", err)
		}
	}()
}

func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf(`snapshot: missing subcommand (build|inspect|clear)`)
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("snapshot "+sub, flag.ExitOnError)
	wl, scale, seed, par, cacheDir := openFlags(fs)
	// The snapshot command exists to manage the cache, so unlike the other
	// commands its -cache-dir defaults to a real directory.
	fs.Lookup("cache-dir").DefValue = ".jobench-cache"
	*cacheDir = ".jobench-cache"
	fs.Parse(args)

	switch sub {
	case "build":
		start := time.Now()
		sys, err := jobench.Open(jobench.Options{
			Workload: *wl, Scale: *scale, Seed: *seed, Parallel: *par, CacheDir: *cacheDir,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snapshot: database + statistics ready in %v, computing true cardinalities for %d queries...\n",
			time.Since(start).Round(time.Millisecond), len(sys.QueryIDs()))
		if err := sys.Warmup(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snapshot: built in %v\n", time.Since(start).Round(time.Millisecond))
		return printSnapshotInfo(*cacheDir)
	case "inspect":
		return printSnapshotInfo(*cacheDir)
	case "clear":
		// -workload filters the clear to one workload's artifacts; the flag's
		// empty default clears the whole store (the historical behavior).
		removed, err := snapshot.Clear(*cacheDir, *wl)
		if err != nil {
			return err
		}
		if *wl != "" {
			fmt.Printf("removed %d %s snapshot(s) from %s\n", removed, *wl, *cacheDir)
			return nil
		}
		fmt.Printf("removed %d snapshot(s) from %s\n", removed, *cacheDir)
		return nil
	default:
		return fmt.Errorf("snapshot: unknown subcommand %q (build|inspect|clear)", sub)
	}
}

func printSnapshotInfo(cacheDir string) error {
	infos, err := snapshot.Inspect(cacheDir)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Printf("no snapshots under %s\n", cacheDir)
		return nil
	}
	fmt.Printf("%-18s %6s %8s %10s %5s %6s %-14s %12s\n",
		"fingerprint", "seed", "scale", "workload", "db", "truth", "indexes", "bytes")
	for _, in := range infos {
		db := "no"
		if in.HasDatabase {
			db = "yes"
		}
		idx := "-"
		if len(in.IndexSets) > 0 {
			idx = strings.Join(in.IndexSets, ",")
		}
		fmt.Printf("%-18s %6d %8g %10s %5s %6d %-14s %12d\n",
			in.Fingerprint, in.Manifest.Seed, in.Manifest.Scale, in.Manifest.Workload,
			db, in.TruthFiles, idx, in.Bytes)
	}
	return nil
}
