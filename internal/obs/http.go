package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// The expvar package keeps one global variable namespace per process, so
// the registry published under "deferstm" is whichever registry served
// most recently — an atomic pointer lets tests (and a binary that builds
// several runtimes) re-point it without tripping expvar's
// panic-on-duplicate Publish.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Mux returns a debug mux for the registry:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar JSON (cmdline, memstats, and this registry
//	               under "deferstm" with histogram percentiles)
//	/debug/pprof/  the standard pprof handlers (profile, heap, trace, …)
//
// Background goroutines the runtime labels (map-migrator, wal-flush,
// deferred-op) are distinguishable in /debug/pprof/goroutine?debug=1.
func (r *Registry) Mux() *http.ServeMux {
	expvarOnce.Do(func() {
		expvar.Publish("deferstm", expvar.Func(func() any {
			return expvarReg.Load().Snapshot() // nil-safe: empty map
		}))
	})
	expvarReg.Store(r)

	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug endpoint on addr (e.g. "127.0.0.1:9190", or
// ":0" for an ephemeral port) and returns the bound address and a stop
// function. The server runs until stop is called; Serve itself returns
// immediately after the listener is bound, so callers can print the
// address before the workload starts. The returned address is always
// dialable (see DialableAddr), so a ":0" caller can paste it into curl
// — which is exactly what the CI smokes do.
func (r *Registry) Serve(addr string) (net.Addr, func(), error) {
	return ServeMux(addr, r.Mux())
}

// ServeMux is Serve for an arbitrary handler: bind addr, serve h until
// the stop function is called, report the dialable bound address.
// Callers that extend the registry's debug mux with their own routes
// (e.g. cmd/kvserver's /kv/* JSON fallback) serve the combined mux
// through this.
func ServeMux(addr string, h http.Handler) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return DialableAddr(ln.Addr()), func() { _ = srv.Close() }, nil
}

// DialableAddr rewrites a listener's bound address into one a client can
// actually connect to: listening on ":0" or "0.0.0.0:x" binds the
// wildcard address, and printing that verbatim ("http://[::]:43210")
// gives scripts an undialable URL. The wildcard host is replaced with
// IPv4 loopback (a wildcard listener accepts loopback connections in
// both families, and 127.0.0.1 stays reachable in IPv6-less
// containers); concrete hosts and non-TCP addresses pass through
// unchanged.
func DialableAddr(a net.Addr) net.Addr {
	tcp, ok := a.(*net.TCPAddr)
	if !ok || (tcp.IP != nil && !tcp.IP.IsUnspecified()) {
		return a
	}
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: tcp.Port}
}
