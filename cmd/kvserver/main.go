// Command kvserver serves the durable transactional KV store
// (internal/kv) over TCP (internal/server's binary protocol), backed by
// a real on-disk WAL. It is the networked face of the paper's atomic
// deferral: every connection's commits flow into the WAL group commit,
// the fsync runs deferred outside the store's locks, and a client's
// response is held until the durable watermark covers its record.
//
// Usage:
//
//	kvserver -addr 127.0.0.1:7070 -dir /var/lib/deferstm -mode group
//
// Pass -addr :0 for an ephemeral port; the bound (dialable) address is
// printed to stderr and, with -addrfile, written to a file so scripts
// can pick it up. -metrics serves /metrics, /debug/pprof and the
// /kv/* JSON fallback on a second port.
//
// The crash-recovery smoke in scripts/ci.sh uses two extra modes:
//
//	kvserver -dir D -verify            recover the store, print a JSON
//	                                   RecoveryInfo summary, exit
//	kvserver -dir D -verify -ackfile F additionally check each lane's
//	                                   recovered LSN against the
//	                                   loadgen's "lane lsn" record of
//	                                   acked LSNs via
//	                                   check.AckedPrefixLanes
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
	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/server"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "TCP listen address (\":0\" for an ephemeral port)")
		addrfile = fs.String("addrfile", "", "write the bound address to this file once listening")
		dir      = fs.String("dir", "", "WAL directory (required unless -mode none)")
		mode     = fs.String("mode", "group", "durability mode: group|none (group: WAL group commit; none: in-memory, no WAL)")
		shards   = fs.Int("shards", 0, "key-space shards = parallel WAL lanes (power of two; 0 adopts the store's manifest)")
		window   = fs.Int("window", 128, "per-connection in-flight response window")
		metrics  = fs.String("metrics", "", "serve /metrics, /debug/pprof and the /kv/* JSON API on this address")
		verify   = fs.Bool("verify", false, "recover the store, print a recovery summary, and exit")
		ackfile  = fs.String("ackfile", "", "with -verify: file holding the max durably-acked LSN to check against")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var kvMode kv.Mode
	switch *mode {
	case "group":
		kvMode = kv.ModeGroup
	case "none":
		kvMode = kv.ModeNone
	default:
		fmt.Fprintf(stderr, "kvserver: unknown mode %q\n", *mode)
		return 2
	}
	var backend wal.Backend
	if kvMode != kv.ModeNone {
		if *dir == "" {
			fmt.Fprintln(stderr, "kvserver: -dir is required unless -mode none")
			return 2
		}
		b, err := wal.NewOSBackend(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "kvserver: %v\n", err)
			return 1
		}
		backend = b
	}

	reg, store, info, err := open(backend, kv.Options{Mode: kvMode, Shards: *shards})
	if err != nil {
		fmt.Fprintf(stderr, "kvserver: open: %v\n", err)
		return 1
	}
	defer store.Close()

	if *verify {
		return runVerify(stdout, stderr, info, *ackfile)
	}

	logger := log.New(stderr, "kvserver: ", log.LstdFlags)
	srv := server.New(store, server.Options{
		Window:   *window,
		Registry: reg,
		Logf:     func(format string, a ...any) { logger.Printf(format, a...) },
	})

	if *metrics != "" {
		mux := reg.Mux()
		srv.RegisterHTTP(mux)
		maddr, stop, err := obs.ServeMux(*metrics, mux)
		if err != nil {
			fmt.Fprintf(stderr, "kvserver: -metrics: %v\n", err)
			return 1
		}
		defer stop()
		logger.Printf("metrics: http://%s/metrics", maddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "kvserver: listen: %v\n", err)
		return 1
	}
	bound := obs.DialableAddr(ln.Addr())
	logger.Printf("serving %s store (%d keys recovered, last LSN %d) on %s",
		kvMode, info.Keys, info.LastLSN, bound)
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(bound.String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "kvserver: -addrfile: %v\n", err)
			return 1
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	select {
	case sig := <-sigs:
		// Graceful drain: kick the readers, let every already-decoded
		// request wait out its durability and send its ack, then tear
		// down. A second signal (or the timeout) hard-closes.
		logger.Printf("%v: draining", sig)
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		go func() {
			<-sigs
			scancel()
		}()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Printf("drain cut short: %v", err)
		}
		scancel()
		<-serveDone
	case err := <-serveDone:
		if err != nil {
			fmt.Fprintf(stderr, "kvserver: serve: %v\n", err)
			return 1
		}
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(stderr, "kvserver: close: %v\n", err)
		return 1
	}
	return 0
}

// open builds the metrics registry and a runtime and store instrumented
// on it; run adds the server's own instruments.
func open(backend wal.Backend, opts kv.Options) (*obs.Registry, *kv.Store, *kv.RecoveryInfo, error) {
	reg := obs.NewRegistry()
	reg.SetBuildInfo("commit", bench.GitCommit(), "go", runtime.Version(), "binary", "kvserver")
	rt := stm.NewDefault()
	rt.SetMetrics(stm.NewMetrics(reg))
	stm.RegisterStats(reg, rt.Snapshot)
	opts.Registry = reg
	store, info, err := kv.Open(rt, backend, opts)
	return reg, store, info, err
}

// runVerify prints what recovery found and, given an ackfile, checks
// the recovered state against the durability acks handed out before the
// crash. The loadgen records, per WAL lane, the highest LSN whose
// response it actually received; the server acks only at the durable
// watermark; so recovery must cover those LSNs, lane by lane
// (check.VerifyAckfile). The ackfile holds one "lane lsn" pair per
// line.
func runVerify(stdout, stderr io.Writer, info *kv.RecoveryInfo, ackfile string) int {
	summary, _ := json.Marshal(info)
	fmt.Fprintf(stdout, "%s\n", summary)
	if ackfile == "" {
		return 0
	}
	recovered := make([]uint64, info.Shards)
	for lane := 0; lane < info.Shards && lane < len(info.Lanes); lane++ {
		recovered[lane] = info.Lanes[lane].LastLSN // zero in -mode none (no lanes)
	}
	acked, violations, err := check.VerifyAckfile(ackfile, recovered)
	if err != nil {
		fmt.Fprintf(stderr, "kvserver: -ackfile: %v\n", err)
		return 1
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "kvserver: verify: %s\n", v.Msg)
	}
	if len(violations) > 0 {
		return 1
	}
	for lane := 0; lane < info.Shards; lane++ {
		fmt.Fprintf(stdout, "verify ok: lane %d recovered LSN %d covers acked LSN %d\n",
			lane, recovered[lane], acked[lane])
	}
	fmt.Fprintf(stdout, "verify ok: %d lanes, %d keys\n", info.Shards, info.Keys)
	return 0
}
