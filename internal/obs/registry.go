package obs

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
)

func numCPU() int { return runtime.NumCPU() }

// CounterFunc reads a monotone counter on demand (typically a field of
// an stm.StatsSnapshot). Called on every exposition request.
type CounterFunc func() uint64

// GaugeFunc reads a level on demand.
type GaugeFunc func() float64

type funcMetric struct {
	name string // may carry Prometheus labels: `x_total{reason="conflict"}`
	help string
	kind string // "counter" | "gauge"
	ctr  CounterFunc
	gf   GaugeFunc
}

// Registry is a set of named metrics exposed together: histograms and
// gauges created through it, plus counter/gauge callback series
// registered onto it. A nil *Registry is legal everywhere and simply
// constructs unregistered instruments, so packages can build their
// metrics unconditionally and let the caller decide whether anything is
// exported.
type Registry struct {
	mu        sync.Mutex
	hists     []*Histogram
	gauges    []*Gauge
	funcs     []funcMetric
	buildInfo []string // alternating label key, value
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewHistogram creates and registers a histogram. Safe on a nil
// registry (the histogram is created but exposed nowhere).
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := NewHistogram(name, help)
	if r != nil {
		r.mu.Lock()
		r.hists = append(r.hists, h)
		r.mu.Unlock()
	}
	return h
}

// NewGauge creates and registers a gauge. Safe on a nil registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := NewGauge(name, help)
	if r != nil {
		r.mu.Lock()
		r.gauges = append(r.gauges, g)
		r.mu.Unlock()
	}
	return g
}

// Counter registers a callback-backed monotone counter series. The name
// may carry Prometheus labels (`deferstm_aborts_total{reason="conflict"}`);
// series sharing the name before the brace form one metric family. Safe
// on a nil registry (no-op).
func (r *Registry) Counter(name, help string, fn CounterFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs = append(r.funcs, funcMetric{name: name, help: help, kind: "counter", ctr: fn})
	r.mu.Unlock()
}

// GaugeFunc registers a callback-backed gauge series. Safe on a nil
// registry (no-op).
func (r *Registry) GaugeFunc(name, help string, fn GaugeFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs = append(r.funcs, funcMetric{name: name, help: help, kind: "gauge", gf: fn})
	r.mu.Unlock()
}

// SetBuildInfo attaches alternating key/value label pairs exposed as the
// constant series deferstm_build_info{...} 1 (the Prometheus idiom for
// build metadata). Safe on a nil registry.
func (r *Registry) SetBuildInfo(kv ...string) {
	if r == nil || len(kv)%2 != 0 {
		return
	}
	r.mu.Lock()
	r.buildInfo = append([]string(nil), kv...)
	r.mu.Unlock()
}

// family splits a labeled series name into its metric-family name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format. Histograms use the classic cumulative _bucket/_sum/
// _count encoding with le in seconds; the exact observed maximum is
// exposed as an extra <name>_max_seconds gauge (log buckets alone cap
// tail knowledge at a power of two — the max restores it).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	hists := append([]*Histogram(nil), r.hists...)
	gauges := append([]*Gauge(nil), r.gauges...)
	funcs := append([]funcMetric(nil), r.funcs...)
	buildInfo := append([]string(nil), r.buildInfo...)
	r.mu.Unlock()

	if len(buildInfo) > 0 {
		var lb []string
		for i := 0; i+1 < len(buildInfo); i += 2 {
			lb = append(lb, fmt.Sprintf("%s=%q", buildInfo[i], buildInfo[i+1]))
		}
		fmt.Fprintf(w, "# HELP deferstm_build_info Build metadata (constant 1).\n")
		fmt.Fprintf(w, "# TYPE deferstm_build_info gauge\n")
		fmt.Fprintf(w, "deferstm_build_info{%s} 1\n", strings.Join(lb, ","))
	}

	for _, h := range hists {
		s := h.Snapshot()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
		top := topBucket(&s)
		var cum uint64
		for i := 0; i <= top; i++ {
			cum += s.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatLe(BucketUpper(i)), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, s.Count)
		fmt.Fprintf(w, "%s_sum %g\n", h.name, float64(s.Sum)/1e9)
		fmt.Fprintf(w, "%s_count %d\n", h.name, s.Count)
		fmt.Fprintf(w, "# TYPE %s_max_seconds gauge\n", h.name)
		fmt.Fprintf(w, "%s_max_seconds %g\n", h.name, float64(s.Max)/1e9)
	}

	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		fmt.Fprintf(w, "%s %d\n", g.name, g.Load())
	}

	// Callback series grouped by family so HELP/TYPE appear once per
	// family even when labeled variants registered separately.
	seen := map[string]bool{}
	for _, f := range funcs {
		fam := family(f.name)
		if !seen[fam] {
			seen[fam] = true
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, f.help, fam, f.kind)
		}
		if f.ctr != nil {
			fmt.Fprintf(w, "%s %d\n", f.name, f.ctr())
		} else {
			fmt.Fprintf(w, "%s %g\n", f.name, f.gf())
		}
	}
}

// topBucket returns the highest non-empty bucket index (0 when empty),
// so the exposition skips the all-empty tail instead of emitting 48
// series per histogram.
func topBucket(s *HistSnapshot) int {
	for i := nHistBuckets - 1; i > 0; i-- {
		if s.Buckets[i] != 0 {
			return i
		}
	}
	return 0
}

// formatLe renders a nanosecond bound as Prometheus seconds.
func formatLe(ns uint64) string {
	return fmt.Sprintf("%g", float64(ns)/1e9)
}

// Snapshot returns a plain map rendering of the registry: histogram
// percentiles, gauge levels, and callback series, keyed by metric name.
// This is the expvar payload (and a convenient test surface).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	hists := append([]*Histogram(nil), r.hists...)
	gauges := append([]*Gauge(nil), r.gauges...)
	funcs := append([]funcMetric(nil), r.funcs...)
	r.mu.Unlock()

	for _, h := range hists {
		s := h.Snapshot()
		out[h.name] = map[string]any{
			"count":   s.Count,
			"mean_ns": s.Mean(),
			"p50_ns":  s.Quantile(0.50),
			"p90_ns":  s.Quantile(0.90),
			"p99_ns":  s.Quantile(0.99),
			"max_ns":  s.Max,
		}
	}
	for _, g := range gauges {
		out[g.name] = g.Load()
	}
	for _, f := range funcs {
		if f.ctr != nil {
			out[f.name] = f.ctr()
		} else {
			out[f.name] = f.gf()
		}
	}
	return out
}
