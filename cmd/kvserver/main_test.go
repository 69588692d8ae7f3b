package main

import (
	"os"
	"slices"
	"strings"
	"testing"

	"deferstm/internal/kv"
	"deferstm/internal/server"
	"deferstm/internal/simio"
	"deferstm/internal/wal"
)

// TestMetricNames pins the metric names a served kvserver exposes: the
// registry open builds for a 2-lane group-commit store, plus the
// server's own instruments, against the committed list.
func TestMetricNames(t *testing.T) {
	reg, store, _, err := open(wal.NewSimBackend(simio.NewFS(simio.Latency{})), kv.Options{Mode: kv.ModeGroup, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	server.New(store, server.Options{Registry: reg})
	b, err := os.ReadFile("testdata/metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Names(), strings.Fields(string(b)); !slices.Equal(got, want) {
		t.Errorf("metric names changed:\ngot  %q\nwant %q", got, want)
	}
}
