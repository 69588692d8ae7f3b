package main

import (
	"context"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/server"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// TestMetricNames pins the metric names a serving kvreplica exposes: the
// registry newReplica builds, once the replica of a 2-lane primary has
// caught up, plus the read-only server's instruments, against the
// committed list. A replica has no log, so it exposes no WAL series.
func TestMetricNames(t *testing.T) {
	primary, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(simio.NewFS(simio.Latency{})), kv.Options{Mode: kv.ModeGroup, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv := server.New(primary, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	reg, r := newReplica(ln.Addr().String(), t.Logf)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	defer func() { cancel(); <-done }()
	if err := r.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	server.New(r.Store(), server.Options{Registry: reg, ReadOnly: true})
	b, err := os.ReadFile("testdata/metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Names(), strings.Fields(string(b)); !slices.Equal(got, want) {
		t.Errorf("metric names changed:\ngot  %q\nwant %q", got, want)
	}
}
