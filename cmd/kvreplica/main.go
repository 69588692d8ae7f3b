// Command kvreplica runs a read replica: it tails a kvserver's WAL
// lanes over the replication stream (internal/repl), replays them into
// its own in-memory store, and serves read-only GET/Scan on the same
// binary protocol and HTTP fallback as the primary. Cross-shard batches
// are applied atomically — a reader never sees half of one — and reads
// ride the snapshot path, so they are abort-free and ordered at the
// applied (watermark-consistent) cut.
//
// Usage:
//
//	kvreplica -primary 127.0.0.1:7070 -addr 127.0.0.1:7071
//
// The listener comes up only after initial catch-up (every lane applied
// to a received durable watermark), so the -addrfile appearing means
// the replica is serving current data. If the primary goes away the
// replica keeps serving its last applied state and reconnects with
// exponential backoff; the applied cursors survive the outage, so the
// re-handshake resumes exactly where replication left off.
//
// -statusfile periodically writes the replication Status JSON
// (atomically, via rename). The ci.sh replica smoke reads it back with
//
//	kvreplica -verify -statusfile S -ackfile F
//
// which checks the applied cursors against the loadgen's record of
// durably-acked LSNs (check.AckedPrefixLanes: nothing acked on the
// primary may be missing from a caught-up replica), insists the
// snapshot read path never fell back to validation, and prints the
// replication-lag percentiles.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"deferstm/internal/bench"
	"deferstm/internal/check"
	"deferstm/internal/obs"
	"deferstm/internal/repl"
	"deferstm/internal/server"
	"deferstm/internal/stm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvreplica", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		primary    = fs.String("primary", "", "kvserver address to replicate from (required)")
		addr       = fs.String("addr", "127.0.0.1:0", "TCP listen address for read-only serving")
		addrfile   = fs.String("addrfile", "", "write the bound address to this file once serving")
		metrics    = fs.String("metrics", "", "serve /metrics, /debug/pprof and the /kv/* JSON API on this address")
		statusfile = fs.String("statusfile", "", "periodically write replication Status JSON to this file")
		window     = fs.Int("window", 128, "per-connection in-flight response window")
		verify     = fs.Bool("verify", false, "read -statusfile back and verify it instead of serving")
		ackfile    = fs.String("ackfile", "", "with -verify: loadgen ack record to check the applied cursors against")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *verify {
		return runVerify(stdout, stderr, *statusfile, *ackfile)
	}
	if *primary == "" {
		fmt.Fprintln(stderr, "kvreplica: -primary is required")
		return 2
	}

	logger := log.New(stderr, "kvreplica: ", log.LstdFlags)
	reg, r := newReplica(*primary, func(format string, a ...any) { logger.Printf(format, a...) })

	// The stream owns ctx; signals cancel it, which ends Run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		if err := r.Run(ctx); err != nil && ctx.Err() == nil {
			logger.Printf("stream: %v", err)
		}
	}()

	if *statusfile != "" {
		go statusWriter(ctx, r, *statusfile, logger)
	}

	logger.Printf("replicating from %s", *primary)
	if err := r.WaitCaughtUp(ctx); err != nil {
		// Interrupted before ever catching up: nothing is serving yet,
		// so there is nothing to drain.
		<-runDone
		writeStatus(r, *statusfile, logger)
		return 0
	}
	store := r.Store()
	st := r.Status()
	logger.Printf("caught up: %d lanes, applied %v", st.Lanes, st.Applied)

	srv := server.New(store, server.Options{
		Window:   *window,
		Registry: reg,
		Logf:     func(format string, a ...any) { logger.Printf(format, a...) },
		ReadOnly: true,
	})
	if *metrics != "" {
		mux := reg.Mux()
		srv.RegisterHTTP(mux)
		maddr, stop, err := obs.ServeMux(*metrics, mux)
		if err != nil {
			fmt.Fprintf(stderr, "kvreplica: -metrics: %v\n", err)
			return 1
		}
		defer stop()
		logger.Printf("metrics: http://%s/metrics", maddr)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "kvreplica: listen: %v\n", err)
		return 1
	}
	bound := obs.DialableAddr(ln.Addr())
	logger.Printf("serving read-only on %s", bound)
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(bound.String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "kvreplica: -addrfile: %v\n", err)
			return 1
		}
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		logger.Printf("draining")
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			logger.Printf("drain cut short: %v", err)
		}
		scancel()
		<-serveDone
	case err := <-serveDone:
		if err != nil {
			fmt.Fprintf(stderr, "kvreplica: serve: %v\n", err)
			return 1
		}
	}
	cancel()
	<-runDone
	// One last status write so -verify sees the final cursors, not the
	// last tick's.
	writeStatus(r, *statusfile, logger)
	return 0
}

// newReplica builds the metrics registry and a replica of primary whose
// runtime, and the store it opens, are instrumented on it; run adds the
// server's own instruments once the replica has caught up.
func newReplica(primary string, logf func(format string, a ...any)) (*obs.Registry, *repl.Replica) {
	reg := obs.NewRegistry()
	reg.SetBuildInfo("commit", bench.GitCommit(), "go", runtime.Version(), "binary", "kvreplica")
	rt := stm.NewDefault()
	rt.SetMetrics(stm.NewMetrics(reg))
	stm.RegisterStats(reg, rt.Snapshot)
	return reg, repl.New(rt, repl.Options{Primary: primary, Registry: reg, Logf: logf})
}

// statusWriter publishes r.Status() to path every 200ms. Writes go
// through a temp file + rename so a reader never sees a torn JSON.
func statusWriter(ctx context.Context, r *repl.Replica, path string, logger *log.Logger) {
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			writeStatus(r, path, logger)
		}
	}
}

func writeStatus(r *repl.Replica, path string, logger *log.Logger) {
	if path == "" {
		return
	}
	b, err := json.Marshal(r.Status())
	if err != nil {
		logger.Printf("statusfile: %v", err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		logger.Printf("statusfile: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		logger.Printf("statusfile: %v", err)
	}
}

// runVerify reads a statusfile back and checks the replica's applied
// state against the loadgen's ack record: every LSN a client was
// durably acked on the primary must be covered by the replica's applied
// cursor on that lane (check.AckedPrefixLanes), and the read path must
// never have fallen back from the snapshot fast path to validation —
// replica reads are supposed to be abort-free by construction.
func runVerify(stdout, stderr io.Writer, statusfile, ackfile string) int {
	if statusfile == "" {
		fmt.Fprintln(stderr, "kvreplica: -verify needs -statusfile")
		return 2
	}
	b, err := os.ReadFile(statusfile)
	if err != nil {
		fmt.Fprintf(stderr, "kvreplica: -statusfile: %v\n", err)
		return 1
	}
	var st repl.Status
	if err := json.Unmarshal(b, &st); err != nil {
		fmt.Fprintf(stderr, "kvreplica: -statusfile %s: %v\n", statusfile, err)
		return 1
	}
	if st.Lanes == 0 || len(st.Applied) != st.Lanes {
		fmt.Fprintf(stderr, "kvreplica: status reports %d lanes with %d cursors\n",
			st.Lanes, len(st.Applied))
		return 1
	}

	ok := true
	if ackfile != "" {
		ab, err := os.ReadFile(ackfile)
		if err != nil {
			fmt.Fprintf(stderr, "kvreplica: -ackfile: %v\n", err)
			return 1
		}
		acked, err := check.ParseAckfile(string(ab), st.Lanes)
		if err != nil {
			fmt.Fprintf(stderr, "kvreplica: -ackfile %s: %v\n", ackfile, err)
			return 1
		}
		violations := check.AckedPrefixLanes(acked, st.Applied)
		for _, v := range violations {
			fmt.Fprintf(stderr, "kvreplica: verify: %s\n", v.Msg)
			ok = false
		}
		if ok {
			for lane := 0; lane < st.Lanes; lane++ {
				fmt.Fprintf(stdout, "replica verify ok: lane %d applied LSN %d covers acked LSN %d\n",
					lane, st.Applied[lane], acked[lane])
			}
		}
	}
	if st.SnapshotFallbacks != 0 {
		fmt.Fprintf(stderr, "kvreplica: verify: %d snapshot reads fell back to validation (want 0)\n",
			st.SnapshotFallbacks)
		ok = false
	}
	if !ok {
		return 1
	}
	fmt.Fprintf(stdout,
		"replica verify ok: %d lanes, %d records (%d batches), lag p50 %.3fms p99 %.3fms over %d samples, %d snapshot reads, 0 fallbacks\n",
		st.Lanes, st.AppliedRecords, st.AppliedBatches,
		st.LagP50Ns/1e6, st.LagP99Ns/1e6, st.LagSamples, st.SnapshotReads)
	return 0
}
