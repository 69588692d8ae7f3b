// Command stmbench runs the STM benchmark suites and emits a JSON
// document that future PRs diff against — the committed BENCH_*.json
// trajectory files. Four suites exist: "hot" (read-only, small-write,
// contended-counter — per-transaction constant factors), "scaling"
// (map-read, map-write, resize-storm across a 1..NumCPU thread ladder —
// throughput vs. thread count), "reactive" (blocked-reader
// wakeup-latency ladder, watcher-vs-spin churn ablation, bounded-queue
// handoff — the watcher-based retry path), and "mixed" (TPC-B-style
// writer ladder against one long scanner, validating vs. snapshot mode
// — the MVCC snapshot-read story; see internal/bench/mixed.go).
//
// Usage:
//
//	stmbench                         run the hot suite, print a table
//	stmbench -suite scaling          run the thread-scaling suite
//	stmbench -suite mixed            writers-vs-scanner ladder
//	stmbench -scanner snapshot       mixed-suite scan variant
//	                                 (validate|snapshot|both)
//	stmbench -suite all              both suites in one document
//	stmbench -maxthreads 2           cap the scaling thread ladder (CI)
//	stmbench -json out.json          also write the JSON document
//	stmbench -baseline old.json      diff against a saved run and emit
//	                                 a trajectory {baseline, after}
//	stmbench -baseline old.json -allocgate
//	                                 additionally fail (exit 1) if the
//	                                 read-only or small-write rows
//	                                 regressed in allocs/op
//	stmbench -validate f.json        only check a document is well formed
//	stmbench -quick                  CI smoke: milliseconds, no thresholds
//	stmbench -metrics 127.0.0.1:9190 serve /metrics + /debug/pprof while running
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"deferstm/internal/bench"
	"deferstm/internal/obs"
	"deferstm/internal/stm"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("stmbench", flag.ExitOnError)
	var (
		jsonOut    = fs.String("json", "", "write the result document to this path")
		baseline   = fs.String("baseline", "", "saved run to diff against; output becomes a {baseline, after} trajectory")
		validate   = fs.String("validate", "", "validate an existing document and exit (no benchmarks run)")
		quick      = fs.Bool("quick", false, "CI smoke mode: tiny target times")
		label      = fs.String("label", "", "label recorded in the document (e.g. pr3-after)")
		benchtime  = fs.Duration("benchtime", 0, "target wall time per workload (default 1s, 25ms with -quick)")
		suite      = fs.String("suite", "hot", "which suite to run: hot|scaling|reactive|mixed|all")
		maxthreads = fs.Int("maxthreads", 0, "cap the scaling suite's thread ladder (0 = up to NumCPU)")
		maxreaders = fs.Int("maxreaders", 0, "cap the reactive suite's blocked-reader ladder (0 = full ladder)")
		maxwriters = fs.Int("maxwriters", 0, "cap the mixed suite's writer ladder (0 = full ladder)")
		scanner    = fs.String("scanner", "both", "mixed-suite scan variant: validate|snapshot|both")
		allocgate  = fs.Bool("allocgate", false, "with -baseline: fail if read-only/small-write allocs/op regressed")
		metrics    = fs.String("metrics", "", "serve /metrics + /debug/pprof on this address while the suite runs (e.g. 127.0.0.1:9190)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *validate != "" {
		doc, err := bench.LoadStmDoc(*validate)
		if err == nil {
			err = bench.ValidateStmDoc(doc)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: %s: invalid: %v\n", *validate, err)
			return 1
		}
		label := doc.Label
		if label == "" {
			label = "unlabeled"
		}
		fmt.Printf("%s: ok (%d results, %s, commit %s)\n", *validate, len(doc.Results), label, doc.Commit)
		return 0
	}

	commit := bench.GitCommit()
	stmOpts := bench.StmOptions{
		Quick:  *quick,
		Target: *benchtime,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.SetBuildInfo("commit", commit, "go", runtime.Version(), "binary", "stmbench")
		stmOpts.Metrics = stm.NewMetrics(reg)
		addr, stop, err := reg.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: -metrics: %v\n", err)
			return 1
		}
		defer stop()
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	var results []bench.StmResult
	switch *suite {
	case "hot":
		results = bench.RunStmSuite(stmOpts)
	case "scaling":
		results = bench.RunScalingSuite(bench.ScalingOptions{StmOptions: stmOpts, MaxThreads: *maxthreads})
	case "reactive":
		results = bench.RunReactiveSuite(bench.ReactiveOptions{StmOptions: stmOpts, MaxReaders: *maxreaders})
	case "mixed":
		results = bench.RunMixedSuite(bench.MixedOptions{StmOptions: stmOpts, MaxWriters: *maxwriters, Scanner: *scanner})
	case "all":
		results = bench.RunStmSuite(stmOpts)
		results = append(results, bench.RunScalingSuite(bench.ScalingOptions{StmOptions: stmOpts, MaxThreads: *maxthreads})...)
		results = append(results, bench.RunReactiveSuite(bench.ReactiveOptions{StmOptions: stmOpts, MaxReaders: *maxreaders})...)
		results = append(results, bench.RunMixedSuite(bench.MixedOptions{StmOptions: stmOpts, MaxWriters: *maxwriters, Scanner: *scanner})...)
	default:
		fmt.Fprintf(os.Stderr, "stmbench: unknown suite %q (want hot|scaling|reactive|mixed|all)\n", *suite)
		return 2
	}
	doc := bench.NewStmDoc(*label, commit, *quick, results)
	if err := bench.ValidateStmDoc(doc); err != nil {
		fmt.Fprintf(os.Stderr, "stmbench: produced an invalid document: %v\n", err)
		return 1
	}

	var out any = doc
	gateFailed := false
	if *baseline != "" {
		old, err := bench.LoadStmDoc(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: %v\n", err)
			return 1
		}
		fmt.Println()
		bench.DiffStmDocs(os.Stdout, old, doc)
		out = &bench.StmTrajectory{Schema: bench.TrajectorySchema, Baseline: old, After: doc}
		if *allocgate {
			if err := bench.AllocGate(old, doc); err != nil {
				fmt.Fprintf(os.Stderr, "stmbench: allocgate: %v\n", err)
				gateFailed = true
			} else {
				fmt.Println("allocgate: ok")
			}
		}
	} else if *allocgate {
		fmt.Fprintln(os.Stderr, "stmbench: -allocgate requires -baseline")
		return 2
	}
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, out); err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if gateFailed {
		return 1
	}
	return 0
}
