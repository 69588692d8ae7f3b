package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestHistShardLayout pins the stripe geometry: a shard's size must be a
// cache-line multiple with at least one pad byte, so adjacent shards
// never share a line even when the payload is itself a line multiple.
// The second type mirrors the exact-multiple case the old stm padding
// expression `(64 - x%64) % 64` got wrong (pad 0 → adjacent shards).
func TestHistShardLayout(t *testing.T) {
	sz := unsafe.Sizeof(histShard{})
	if sz%64 != 0 {
		t.Errorf("histShard size %d is not a cache-line multiple", sz)
	}
	payload := uintptr(nHistBuckets*8 + 16)
	if sz <= payload {
		t.Errorf("histShard size %d leaves no padding over payload %d", sz, payload)
	}

	// Exact-multiple payload (8 counters = 64 bytes): the corrected
	// expression must yield a full line of padding, not zero.
	type exactShard struct {
		c [8]uint64
		_ [64 - (8*8)%64]byte
	}
	if got := unsafe.Sizeof(exactShard{}); got != 128 {
		t.Errorf("exact-multiple shard = %d bytes, want 128 (64 payload + 64 pad)", got)
	}
}

// TestHistogramExactMerge hammers one histogram from many goroutines and
// verifies the merged snapshot is exact: every observation lands in
// exactly one bucket, and count/sum match what was recorded.
func TestHistogramExactMerge(t *testing.T) {
	h := NewHistogram("t_lat", "test")
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration((w*perWorker + i) % 4096))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketSum uint64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	var wantSum uint64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantSum += uint64((w*perWorker + i) % 4096)
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != 4095 {
		t.Fatalf("max = %d, want 4095", s.Max)
	}
}

// TestHistogramBucketPlacement checks the log2 bucket rule directly.
func TestHistogramBucketPlacement(t *testing.T) {
	for _, ns := range []uint64{0, 1, 2, 3, 4, 255, 256, 1 << 20, 1 << 47, 1 << 60} {
		h := NewHistogram("b", "test")
		h.Observe(time.Duration(ns))
		want := bits.Len64(ns)
		if want >= nHistBuckets {
			want = nHistBuckets - 1
		}
		s := h.Snapshot()
		if s.Buckets[want] != 1 {
			t.Errorf("observe(%d): bucket %d = %d, want 1", ns, want, s.Buckets[want])
		}
	}
}

// TestQuantile checks the percentile extraction: the bound must cover
// the true quantile and stay within one log2 bucket of it, and the max
// must clip the top bucket's bound.
func TestQuantile(t *testing.T) {
	h := NewHistogram("q", "test")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i)) // uniform 1..1000 ns
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, trueV float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000},
	} {
		got := s.Quantile(tc.q)
		if got < tc.trueV {
			t.Errorf("q%.2f = %g below true value %g", tc.q, got, tc.trueV)
		}
		if got > 2*tc.trueV+1 {
			t.Errorf("q%.2f = %g beyond one log2 bucket of %g", tc.q, got, tc.trueV)
		}
	}
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %g, want exactly the max 1000", got)
	}
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestNilInstrumentsAllocFree pins the disabled fast path: observing a
// nil histogram and moving a nil gauge must do nothing and allocate
// nothing; an attached histogram must also be allocation-free.
func TestNilInstrumentsAllocFree(t *testing.T) {
	var h *Histogram
	var g *Gauge
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(123)
		g.Add(1)
	}); n != 0 {
		t.Fatalf("nil instruments allocate %.1f objects/op, want 0", n)
	}
	if h.Snapshot().Count != 0 || g.Load() != 0 {
		t.Fatal("nil instruments recorded state")
	}
	live := NewHistogram("alloc", "test")
	lg := NewGauge("alloc_g", "test")
	if n := testing.AllocsPerRun(200, func() {
		live.Observe(456)
		lg.Add(1)
		lg.Add(-1)
	}); n != 0 {
		t.Fatalf("live instruments allocate %.1f objects/op, want 0", n)
	}
}

// TestWritePrometheus checks the text exposition: family TYPE lines,
// cumulative le buckets, labeled counter families, and build info.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("deferstm_tx_latency_seconds", "Tx latency.")
	g := r.NewGauge("deferstm_defer_queue_depth", "Deferred ops in flight.")
	r.Counter(`deferstm_aborts_total{reason="conflict"}`, "Aborts by reason.", func() uint64 { return 7 })
	r.Counter(`deferstm_aborts_total{reason="capacity"}`, "Aborts by reason.", func() uint64 { return 3 })
	r.SetBuildInfo("commit", "abc123", "go", "go1.24")
	h.Observe(100)
	h.Observe(1000)
	g.Add(4)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE deferstm_tx_latency_seconds histogram",
		"deferstm_tx_latency_seconds_count 2",
		`deferstm_tx_latency_seconds_bucket{le="+Inf"} 2`,
		"deferstm_tx_latency_seconds_max_seconds 1e-06",
		"# TYPE deferstm_defer_queue_depth gauge",
		"deferstm_defer_queue_depth 4",
		`deferstm_aborts_total{reason="conflict"} 7`,
		`deferstm_aborts_total{reason="capacity"} 3`,
		`deferstm_build_info{commit="abc123",go="go1.24"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE deferstm_aborts_total"); n != 1 {
		t.Errorf("labeled family emitted %d TYPE lines, want 1", n)
	}

	// Cumulative bucket counts must be monotone.
	var prev uint64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "deferstm_tx_latency_seconds_bucket") {
			continue
		}
		var cum uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum < prev {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = cum
	}
}

// TestNilRegistry verifies the nil registry constructs working,
// unexported instruments and ignores callbacks.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	h := r.NewHistogram("x", "")
	g := r.NewGauge("y", "")
	r.Counter("z", "", func() uint64 { return 1 })
	r.SetBuildInfo("a", "b")
	h.Observe(5)
	g.Add(2)
	if h.Snapshot().Count != 1 || g.Load() != 2 {
		t.Fatal("nil-registry instruments do not record")
	}
	r.WritePrometheus(io.Discard)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry exposed metrics")
	}
}

// TestServe boots the debug endpoint on an ephemeral port and fetches
// /metrics, /debug/vars and the pprof index.
func TestServe(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("deferstm_test_seconds", "t")
	h.Observe(42)
	addr, stop, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "deferstm_test_seconds_count 1") {
		t.Errorf("/metrics missing histogram:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "deferstm_test_seconds") {
		t.Errorf("/debug/vars missing registry payload")
	}
	if out := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(out, "goroutine") {
		t.Errorf("pprof goroutine handler not serving")
	}
}

// TestServeWildcardAddr: binding ":0" must yield a printed address a
// client can actually dial — the wildcard host rewritten to loopback,
// the ephemeral port resolved. This is what lets CI run a server and a
// scraper together without picking fixed ports.
func TestServeWildcardAddr(t *testing.T) {
	r := NewRegistry()
	addr, stop, err := r.Serve(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	tcp, ok := addr.(*net.TCPAddr)
	if !ok {
		t.Fatalf("Serve returned %T, want *net.TCPAddr", addr)
	}
	if tcp.Port == 0 {
		t.Fatal("Serve reported port 0 for an ephemeral bind")
	}
	if tcp.IP.IsUnspecified() {
		t.Fatalf("Serve reported undialable wildcard host %s", addr)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("GET via reported address: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET via reported address: status %d", resp.StatusCode)
	}
}

// TestDialableAddr covers the rewrite table directly.
func TestDialableAddr(t *testing.T) {
	cases := []struct {
		in   net.Addr
		want string
	}{
		{&net.TCPAddr{IP: nil, Port: 80}, "127.0.0.1:80"},
		{&net.TCPAddr{IP: net.IPv4zero, Port: 81}, "127.0.0.1:81"},
		{&net.TCPAddr{IP: net.IPv6unspecified, Port: 82}, "127.0.0.1:82"},
		{&net.TCPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 83}, "10.1.2.3:83"},
		{&net.TCPAddr{IP: net.IPv6loopback, Port: 84}, "[::1]:84"},
	}
	for _, c := range cases {
		if got := DialableAddr(c.in).String(); got != c.want {
			t.Errorf("DialableAddr(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	unix := &net.UnixAddr{Name: "/tmp/x", Net: "unix"}
	if got := DialableAddr(unix); got != unix {
		t.Errorf("non-TCP address rewritten: %v", got)
	}
}
