package main

import (
	"bytes"
	"maps"
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
	if got, want := slices.Sorted(maps.Keys(reg.Snapshot())), strings.Fields(string(b)); !slices.Equal(got, want) {
		t.Errorf("metric names changed:\ngot  %q\nwant %q", got, want)
	}
}

// TestSyncModeUnknown: group commit is the only durable mode; the
// serial fsync-per-commit mode is gone, and asking for it is a usage
// error, not a silent fallback.
func TestSyncModeUnknown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "sync", "-dir", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Fatalf("-mode sync exited %d, want 2 (stderr %q)", code, stderr.String())
	}
	if want := `unknown mode "sync"`; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q does not say %s", stderr.String(), want)
	}
}
