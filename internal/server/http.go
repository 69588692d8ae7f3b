package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// RegisterHTTP mounts a JSON fallback API onto mux — in cmd/kvserver,
// the same mux the -metrics endpoint serves, so one debug port carries
// /metrics, /debug/pprof and a curl-able view of the store:
//
//	GET  /kv/get?key=k          {"found":true,"value":"v"}
//	PUT  /kv/put?key=k  (body = value)   {"lsn":12}
//	POST /kv/del?key=k          {"lsn":13}
//	GET  /kv/stats              server.Stats
//
// Mutations obey the same durability-ack rule as the wire protocol:
// the response is written only once the durable watermark covers the
// request's LSN. The fallback is for operators and scripts; the binary
// protocol is the data path.
func (s *Server) RegisterHTTP(mux *http.ServeMux) {
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	fail := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}

	// do answers one op through the wire protocol's handler, so the
	// read-only refusal, the replica snapshot-read rule and the per-op
	// request and error counters have one copy, then holds a mutation's
	// answer until the durable watermark covers its LSN.
	do := func(w http.ResponseWriter, r *http.Request, req Request) (Response, bool) {
		p, err := s.execute(req)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, errReadOnly) {
				code = http.StatusForbidden
			}
			fail(w, code, err)
			return p.resp, false
		}
		if p.resp.LSN > 0 {
			if err := s.store.WaitDurableCtx(r.Context(), p.resp.LSN); err != nil {
				fail(w, http.StatusServiceUnavailable, err)
				return p.resp, false
			}
		}
		return p.resp, true
	}

	mux.HandleFunc("/kv/get", func(w http.ResponseWriter, r *http.Request) {
		if resp, ok := do(w, r, Request{Op: OpGet, Key: r.URL.Query().Get("key")}); ok {
			writeJSON(w, http.StatusOK, map[string]any{"found": resp.Found, "value": resp.Val})
		}
	})

	mux.HandleFunc("/kv/put", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut && r.Method != http.MethodPost {
			http.Error(w, "PUT or POST", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, DefaultMaxFrame))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		if resp, ok := do(w, r, Request{Op: OpPut, Key: r.URL.Query().Get("key"), Val: string(body)}); ok {
			writeJSON(w, http.StatusOK, map[string]any{"lsn": resp.LSN})
		}
	})

	mux.HandleFunc("/kv/del", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost && r.Method != http.MethodDelete {
			http.Error(w, "POST or DELETE", http.StatusMethodNotAllowed)
			return
		}
		if resp, ok := do(w, r, Request{Op: OpDel, Key: r.URL.Query().Get("key")}); ok {
			writeJSON(w, http.StatusOK, map[string]any{"lsn": resp.LSN})
		}
	})

	mux.HandleFunc("/kv/scan", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		prefix := q.Get("prefix")
		limit := 1000
		if l := q.Get("limit"); l != "" {
			n, err := strconv.Atoi(l)
			if err != nil || n <= 0 {
				fail(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", l))
				return
			}
			limit = n
		}
		// One consistent snapshot across all shards (Store.Scan pins a
		// single version) — on a replica this is the watermark-consistent
		// cut the stream applied, abort-free under traffic.
		entries := map[string]string{}
		truncated := false
		err := s.store.Scan(func(k, v string) bool {
			if !strings.HasPrefix(k, prefix) {
				return true
			}
			if len(entries) >= limit {
				truncated = true
				return false
			}
			entries[k] = v
			return true
		})
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"entries": entries, "count": len(entries), "truncated": truncated,
		})
	})

	mux.HandleFunc("/kv/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
}
