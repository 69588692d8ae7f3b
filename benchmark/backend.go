package main

import (
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/wal"
)

// simDevice is the device model every durable workload runs on: a WAL
// on the simulated filesystem whose fsync costs a fixed 2 ms and whose
// every other operation is free. It is a constant so that the numbers
// measure the program, not the sandbox's disk.
var simDevice = simio.Latency{Fsync: 2 * time.Millisecond}

// ioStats is what the timing decorator has seen on one backend.
type ioStats struct {
	writes, bytes atomic.Uint64
	tr            *tracer

	mu       sync.Mutex
	fsyncDur []time.Duration
}

// ioDelta is the decorator's view of one window.
type ioDelta struct {
	writes, bytes uint64
	fsyncDur      []time.Duration // one per fsync
}

type ioMark struct {
	writes, bytes uint64
	nDur          int
}

func (s *ioStats) mark() ioMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ioMark{s.writes.Load(), s.bytes.Load(), len(s.fsyncDur)}
}

func (s *ioStats) since(m ioMark) ioDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ioDelta{
		writes:   s.writes.Load() - m.writes,
		bytes:    s.bytes.Load() - m.bytes,
		fsyncDur: append([]time.Duration(nil), s.fsyncDur[m.nDur:]...),
	}
}

// timedBackend decorates the public wal.Backend so the wal and simio
// layers can be measured from outside: it counts and times the writes and
// fsyncs the log issues and, in the traced run, records them as spans.
type timedBackend struct {
	wal.Backend
	st *ioStats
}

// newSimBackend builds a fresh simulated device with the given latency
// model and wraps it in the timing decorator.
func newSimBackend(lat simio.Latency, tr *tracer) (*simio.FS, timedBackend) {
	fs := simio.NewFS(lat)
	return fs, timedBackend{Backend: wal.NewSimBackend(fs), st: &ioStats{tr: tr}}
}

func (b timedBackend) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, st: b.st}, nil
}

func (b timedBackend) Create(name string) (wal.File, error) { return b.wrap(b.Backend.Create(name)) }
func (b timedBackend) OpenAppend(name string) (wal.File, error) {
	return b.wrap(b.Backend.OpenAppend(name))
}

type timedFile struct {
	wal.File
	st *ioStats
}

func (f *timedFile) Write(p []byte) (int, error) {
	seq := f.st.writes.Add(1)
	if !f.st.tr.sampled(seq) {
		n, err := f.File.Write(p)
		f.st.bytes.Add(uint64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.st.tr.add("simio.write", t0, time.Now(), 0, 0, tidDevice)
	f.st.bytes.Add(uint64(n))
	return n, err
}

func (f *timedFile) Fsync() error {
	t0 := time.Now()
	err := f.File.Fsync()
	t1 := time.Now()
	f.st.mu.Lock()
	f.st.fsyncDur = append(f.st.fsyncDur, t1.Sub(t0))
	f.st.mu.Unlock()
	f.st.tr.add("simio.fsync", t0, t1, 0, 0, tidDevice)
	return err
}
