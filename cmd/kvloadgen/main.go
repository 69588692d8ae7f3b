// Command kvloadgen drives a running kvserver with pipelined load and
// measures what the wire actually delivers: durable commits/s,
// fsyncs/commit (from the server's WAL counters), and client-observed
// ack latency percentiles.
//
// It runs a ladder of connection counts, each rung opening N pipelined
// connections that keep -window requests in flight with a configurable
// read/write mix:
//
//	kvloadgen -addr 127.0.0.1:7070 -conns 1,2,4,8 -ops 2000 -reads 50
//
// The ladder is the paper's group-commit claim restated over TCP: as
// connections grow, commits/s should scale while fsyncs/commit falls,
// because concurrent connections' records share flushes — and so should
// one connection's own pipelined requests: the server's reader commits
// the next PUT while the previous ones wait for their fsync. With
// -check, the run fails unless a group-mode rung with >= 8 connections
// observed fsyncs/commit < 1, and fails if a group-mode 1-connection
// rung with writes and -window >= 16 observed fsyncs/commit >= 0.5.
//
// -ackfile records the highest durably-acked LSN per WAL lane for
// the crash-recovery smoke (a bare decimal for a single-lane server,
// "lane lsn" lines for a sharded one — the formats kvserver -verify
// accepts).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type rung struct {
	conns    int
	ops      uint64 // responses received (commits for writes, reads for gets)
	writes   uint64
	elapsed  time.Duration
	records  uint64 // WAL records appended during the rung (all lanes)
	fsyncs   uint64 // WAL fsyncs during the rung (all lanes)
	p50, p99 time.Duration
	mode     string
}

// ackTracker records, per WAL lane, the highest LSN the server durably
// acked to us. Write responses carry lane-tagged tokens
// (kv.PackToken); a legacy single-lane server's tokens decode as lane
// 0, so the unsharded path falls out of the same code.
type ackTracker struct {
	lanes [kv.MaxShards]atomic.Uint64
}

func (a *ackTracker) observe(token uint64) {
	lane := kv.TokenLane(token)
	if lane < 0 || lane >= kv.MaxShards {
		return
	}
	lsn := kv.TokenLSN(token)
	for {
		cur := a.lanes[lane].Load()
		if lsn <= cur || a.lanes[lane].CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// render emits the ackfile: the legacy bare decimal when only lane 0
// ever acked (so single-lane smoke artifacts keep their old shape), or
// one "lane lsn" line per acked lane for a sharded server.
func (a *ackTracker) render() string {
	maxLane := 0
	for lane := kv.MaxShards - 1; lane > 0; lane-- {
		if a.lanes[lane].Load() > 0 {
			maxLane = lane
			break
		}
	}
	if maxLane == 0 {
		return strconv.FormatUint(a.lanes[0].Load(), 10) + "\n"
	}
	var sb strings.Builder
	for lane := 0; lane <= maxLane; lane++ {
		fmt.Fprintf(&sb, "%d %d\n", lane, a.lanes[lane].Load())
	}
	return sb.String()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:7070", "kvserver address")
		conns   = fs.String("conns", "1,2,4,8", "comma-separated connection-count ladder")
		ops     = fs.Int("ops", 2000, "requests per connection per rung")
		keys    = fs.Int("keys", 256, "distinct keys")
		value   = fs.Int("value", 64, "value bytes")
		reads   = fs.Int("reads", 0, "percentage of requests that are GETs (0 = all writes)")
		window  = fs.Int("window", 64, "requests kept in flight per connection")
		seed    = fs.Int64("seed", 1, "workload RNG seed")
		ackfile = fs.String("ackfile", "", "write the highest durably-acked LSN to this file (crash smoke)")
		checkFC = fs.Bool("check", false, "fail unless a group-mode rung with >= 8 conns and writes saw fsyncs/commit < 1, and every 1-conn rung (at -window >= 16) saw < 0.5")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	connCounts, err := parseInts(*conns)
	if err != nil {
		fmt.Fprintf(stderr, "kvloadgen: %v\n", err)
		return 2
	}
	if *reads < 0 || *reads > 100 {
		fmt.Fprintln(stderr, "kvloadgen: -reads must be 0..100")
		return 2
	}

	var acks ackTracker
	writeAck := func() {
		if *ackfile == "" {
			return
		}
		if err := os.WriteFile(*ackfile, []byte(acks.render()), 0o644); err != nil {
			fmt.Fprintf(stderr, "kvloadgen: -ackfile: %v\n", err)
		}
	}
	defer writeAck()

	var rungs []rung
	for _, n := range connCounts {
		r, err := runRung(*addr, n, *ops, *keys, *value, *reads, *window, *seed, &acks)
		if err != nil {
			fmt.Fprintf(stderr, "kvloadgen: %d conns: %v\n", n, err)
			return 1
		}
		rungs = append(rungs, r)
		fmt.Fprintf(stderr, ".")
	}
	fmt.Fprintln(stderr)
	// The acked watermark must be on disk (the file, not the WAL) before
	// the smoke kills the server; write it eagerly, not just on exit.
	writeAck()

	fmt.Fprintf(stdout, "kvloadgen: %s, %d ops/conn, %d keys, %d-byte values, %d%% reads, window %d\n\n",
		*addr, *ops, *keys, *value, *reads, *window)
	fmt.Fprintf(stdout, "%-6s %8s %10s %12s %10s %14s %12s %12s\n",
		"mode", "conns", "ops", "commits/s", "records", "fsyncs/commit", "ack-p50", "ack-p99")
	for _, r := range rungs {
		fpc := 0.0
		if r.records > 0 {
			fpc = float64(r.fsyncs) / float64(r.records)
		}
		fmt.Fprintf(stdout, "%-6s %8d %10d %12.0f %10d %14.3f %12s %12s\n",
			r.mode, r.conns, r.ops,
			float64(r.ops)/r.elapsed.Seconds(),
			r.records, fpc, r.p50, r.p99)
	}

	if *checkFC {
		ok := false
		for _, r := range rungs {
			if r.mode != "group" || r.writes == 0 || r.records == 0 {
				continue
			}
			fpc := float64(r.fsyncs) / float64(r.records)
			if r.conns >= 8 && fpc < 1 {
				ok = true
			}
			// One connection must batch with itself: only the ack waits
			// for the fsync, never the reader's next commit.
			if r.conns == 1 && *window >= 16 && fpc >= 0.5 {
				fmt.Fprintf(stderr, "kvloadgen: -check: one connection with %d in flight saw fsyncs/commit %.3f, want < 0.5\n", *window, fpc)
				return 1
			}
		}
		if !ok {
			fmt.Fprintln(stderr, "kvloadgen: -check: no group-mode rung with >= 8 conns achieved fsyncs/commit < 1")
			return 1
		}
	}
	return 0
}

// runRung opens n pipelined connections and pushes ops requests through
// each, keeping up to window in flight per connection.
func runRung(addr string, n, ops, keys, valueLen, readPct, window int, seed int64, acks *ackTracker) (rung, error) {
	r := rung{conns: n}
	clients := make([]*server.Client, n)
	for i := range clients {
		c, err := server.Dial(addr)
		if err != nil {
			return r, err
		}
		defer c.Close()
		clients[i] = c
	}

	before, err := clients[0].Stats()
	if err != nil {
		return r, err
	}
	r.mode = before.Mode

	hist := obs.NewHistogram("kvloadgen_ack_seconds", "")
	value := strings.Repeat("x", valueLen)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var totalOps, totalWrites atomic.Uint64
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *server.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(ci)))
			type inflight struct {
				ch   <-chan server.Response
				sent time.Time
			}
			pending := make([]inflight, 0, window)
			drainOne := func() error {
				in := pending[0]
				pending = pending[1:]
				resp, err := c.Recv(in.ch)
				if err != nil {
					return err
				}
				hist.Observe(time.Since(in.sent))
				totalOps.Add(1)
				if resp.LSN > 0 {
					totalWrites.Add(1)
					// The server acked at its lane's durable watermark,
					// so this token is a crash-survival promise: the
					// lane must recover through this LSN.
					acks.observe(resp.LSN)
				}
				return nil
			}
			for i := 0; i < ops; i++ {
				req := server.Request{Op: server.OpPut,
					Key: "k" + strconv.Itoa(rng.Intn(keys)), Val: value}
				if rng.Intn(100) < readPct {
					req = server.Request{Op: server.OpGet, Key: req.Key}
				}
				ch, err := c.Send(req)
				if err != nil {
					errs <- err
					return
				}
				pending = append(pending, inflight{ch: ch, sent: time.Now()})
				if len(pending) >= window {
					if err := drainOne(); err != nil {
						errs <- err
						return
					}
				}
			}
			for len(pending) > 0 {
				if err := drainOne(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(ci, c)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	for range clients {
		if err := <-errs; err != nil {
			return r, err
		}
	}

	after, err := clients[0].Stats()
	if err != nil {
		return r, err
	}
	r.ops = totalOps.Load()
	r.writes = totalWrites.Load()
	r.records = after.WALRecords - before.WALRecords
	r.fsyncs = after.WALFsyncs - before.WALFsyncs
	snap := hist.Snapshot()
	r.p50 = time.Duration(snap.Quantile(0.50))
	r.p99 = time.Duration(snap.Quantile(0.99))
	return r, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no counts in %q", s)
	}
	return out, nil
}
