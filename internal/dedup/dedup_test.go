package dedup

import (
	"bytes"
	"errors"
	"testing"

	"deferstm/internal/mempool"
	"deferstm/internal/simio"
)

func testInput(t *testing.T) []byte {
	t.Helper()
	return GenInput(1<<20, 0.5, 42) // 1 MiB, 50% duplicated blocks
}

func runOnce(t *testing.T, cfg Config, input []byte) (Result, []byte) {
	t.Helper()
	fs := simio.NewFS(simio.Latency{})
	res, err := Run(cfg, input, fs, "out")
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Backend, err)
	}
	data, err := fs.ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

// TestAllBackendsRoundTrip is the keystone: every synchronization backend
// must produce a stream that decodes to exactly the input, at several
// thread counts.
func TestAllBackendsRoundTrip(t *testing.T) {
	input := testInput(t)
	for _, b := range Backends() {
		for _, threads := range []int{1, 4} {
			b, threads := b, threads
			t.Run(b.String()+"/t"+string(rune('0'+threads)), func(t *testing.T) {
				t.Parallel()
				res, data := runOnce(t, Config{Backend: b, Threads: threads}, input)
				decoded, err := Decode(data)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if !bytes.Equal(decoded, input) {
					t.Fatalf("round trip mismatch: %d vs %d bytes", len(decoded), len(input))
				}
				if res.Packets != res.Uniques+res.Dups {
					t.Errorf("packet accounting: %d != %d + %d", res.Packets, res.Uniques, res.Dups)
				}
				if res.Uniques != res.TableEntries {
					t.Errorf("uniques %d != table entries %d", res.Uniques, res.TableEntries)
				}
				if res.PoolOut != 0 {
					t.Errorf("pool leak: %d buffers outstanding", res.PoolOut)
				}
			})
		}
	}
}

// TestReleaseAfterEmit pins the ordering Listing 1's free list would
// give: under +DeferAll a compressed buffer goes back to the pool only
// after its record is written. Every released buffer is poisoned, so a
// release ahead of the write corrupts the output and the round trip fails.
func TestReleaseAfterEmit(t *testing.T) {
	defer func(orig func(*mempool.Pool, []byte)) { release = orig }(release)
	released := 0
	release = func(pool *mempool.Pool, buf []byte) {
		released++
		for i := range buf {
			buf[i] = 0xA5
		}
		pool.Release(buf)
	}
	input := testInput(t)
	for _, b := range []Backend{STMDeferAll, HTMDeferAll} {
		for _, threads := range []int{1, 4} {
			res, data := runOnce(t, Config{Backend: b, Threads: threads}, input)
			if decoded, err := Decode(data); err != nil || !bytes.Equal(decoded, input) {
				t.Fatalf("%v/t%d: output does not round-trip once released buffers are poisoned (err %v)", b, threads, err)
			}
			if res.PoolOut != 0 {
				t.Errorf("%v/t%d: %d buffers never released", b, threads, res.PoolOut)
			}
		}
	}
	if released == 0 {
		t.Fatal("no buffer was released")
	}
}

// TestDeduplicationEffective: a redundant input must dedup + compress to
// much less than its size.
func TestDeduplicationEffective(t *testing.T) {
	input := GenInput(1<<20, 0.7, 7)
	res, data := runOnce(t, Config{Backend: Pthread, Threads: 2}, input)
	if res.Dups == 0 {
		t.Fatal("no duplicates found in highly duplicated input")
	}
	if res.DedupFactor() < 1.5 {
		t.Errorf("dedup factor %.2f too low (out=%d in=%d)", res.DedupFactor(), res.BytesOut, res.BytesIn)
	}
	if uint64(len(data)) != res.BytesOut {
		t.Errorf("file size %d != BytesOut %d", len(data), res.BytesOut)
	}
}

// TestUniqueInputNoDups: with no duplication the dup count is (almost)
// zero.
func TestUniqueInputNoDups(t *testing.T) {
	input := GenInput(1<<19, 0, 3)
	res, _ := runOnce(t, Config{Backend: Pthread, Threads: 2}, input)
	if res.Dups > res.Packets/20 {
		t.Errorf("%d/%d dups in unique input", res.Dups, res.Packets)
	}
}

// TestBackendsAgreeOnDedup: TM and lock backends must find the same set of
// unique fingerprints (identical chunking ⇒ identical dedup counts).
func TestBackendsAgreeOnDedup(t *testing.T) {
	input := testInput(t)
	ref, _ := runOnce(t, Config{Backend: Pthread, Threads: 1}, input)
	for _, b := range []Backend{STM, HTMDeferAll, STMDeferAll, CGL} {
		res, _ := runOnce(t, Config{Backend: b, Threads: 4}, input)
		if res.Packets != ref.Packets {
			t.Errorf("%v packets = %d, want %d", b, res.Packets, ref.Packets)
		}
		if res.Uniques != ref.Uniques {
			t.Errorf("%v uniques = %d, want %d", b, res.Uniques, ref.Uniques)
		}
	}
}

// TestSTMBaselineSerializes: the irrevocable output of the STM baseline
// must register serial runs (one per packet write).
func TestSTMBaselineSerializes(t *testing.T) {
	input := GenInput(1<<19, 0.5, 9)
	res, _ := runOnce(t, Config{Backend: STM, Threads: 2}, input)
	if res.TM.SerialRuns < res.Packets {
		t.Errorf("serial runs = %d, want >= %d (one per packet write)", res.TM.SerialRuns, res.Packets)
	}
}

// TestDeferIOAvoidsWriteSerialization: +DeferIO must not serialize for
// output (some serial runs may still come from contention escalation, but
// far fewer than one per packet).
func TestDeferIOAvoidsWriteSerialization(t *testing.T) {
	input := GenInput(1<<19, 0.5, 9)
	res, _ := runOnce(t, Config{Backend: STMDeferIO, Threads: 2}, input)
	if res.TM.SerialRuns >= res.Packets {
		t.Errorf("serial runs = %d for %d packets; output still serializing", res.TM.SerialRuns, res.Packets)
	}
	if res.TM.DeferredOps < res.Packets {
		t.Errorf("deferred ops = %d, want >= %d (one write per packet)", res.TM.DeferredOps, res.Packets)
	}
}

// TestHTMBaselineCapacityAborts: in-transaction compression must overflow
// the simulated HTM and fall back to serial execution.
func TestHTMBaselineCapacityAborts(t *testing.T) {
	input := GenInput(1<<19, 0.3, 11)
	res, _ := runOnce(t, Config{Backend: HTM, Threads: 2}, input)
	if res.TM.AbortsCapacity == 0 {
		t.Error("no capacity aborts for compression inside HTM transactions")
	}
	if res.TM.SerialRuns == 0 {
		t.Error("no serial fallbacks")
	}
}

// TestHTMDeferAllAvoidsCapacityAborts: with compression deferred, worker
// transactions fit in hardware capacity.
func TestHTMDeferAllAvoidsCapacityAborts(t *testing.T) {
	input := GenInput(1<<19, 0.3, 11)
	res, _ := runOnce(t, Config{Backend: HTMDeferAll, Threads: 2}, input)
	if res.TM.AbortsCapacity > res.Packets/10 {
		t.Errorf("capacity aborts = %d for %d packets with deferred compression", res.TM.AbortsCapacity, res.Packets)
	}
	decodedOK := res.TM.DeferredOps >= res.Uniques // compress ops + write ops
	if !decodedOK {
		t.Errorf("deferred ops = %d, want >= uniques %d", res.TM.DeferredOps, res.Uniques)
	}
}

// TestFsyncPerPacket: with fsync enabled, each packet is durably written.
func TestFsyncPerPacket(t *testing.T) {
	input := GenInput(1<<18, 0.5, 5)
	fs := simio.NewFS(simio.Latency{})
	res, err := Run(Config{Backend: Pthread, Threads: 2}, input, fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	if res.FsyncCount < res.Packets {
		t.Errorf("fsyncs = %d, want >= packets %d", res.FsyncCount, res.Packets)
	}
	n, _ := fs.SyncedLen("out")
	if uint64(n) != res.BytesOut {
		t.Errorf("synced %d != written %d", n, res.BytesOut)
	}
	// NoFsync mode skips them.
	fs2 := simio.NewFS(simio.Latency{})
	res2, err := Run(Config{Backend: Pthread, Threads: 2, NoFsync: true}, input, fs2, "out")
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Stats().Fsyncs != 0 {
		t.Errorf("NoFsync run performed %d fsyncs", fs2.Stats().Fsyncs)
	}
	if res2.BytesOut != res.BytesOut {
		t.Errorf("output size differs with fsync setting: %d vs %d", res2.BytesOut, res.BytesOut)
	}
}

// TestTransientWriteFaultsHandled: pipeline_out must retry transient
// faults; the stream still decodes.
func TestTransientWriteFaultsHandled(t *testing.T) {
	input := GenInput(1<<20, 0.5, 13)
	fs := simio.NewFS(simio.Latency{})
	fs.SetFaults(simio.Faults{TransientEvery: 2})
	if _, err := Run(Config{Backend: STMDeferAll, Threads: 2}, input, fs, "out"); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadAll("out")
	decoded, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(decoded, input) {
		t.Error("round trip failed under transient write faults")
	}
	if fs.Stats().TransientErrors == 0 {
		t.Error("no transients injected — vacuous test")
	}
}

// TestFatalWriteFaultPropagates: a fatal write error must surface as a Run
// error, not hang the pipeline.
func TestFatalWriteFaultPropagates(t *testing.T) {
	input := GenInput(1<<18, 0.5, 13)
	for _, b := range []Backend{Pthread, STM, STMDeferAll} {
		fs := simio.NewFS(simio.Latency{})
		fs.SetFaults(simio.Faults{FatalOnWrite: 3})
		_, err := Run(Config{Backend: b, Threads: 2}, input, fs, "out")
		if b == Pthread || b == STM {
			if !errors.Is(err, simio.ErrFatal) {
				t.Errorf("%v: err = %v, want fatal", b, err)
			}
		} else if err != nil && !errors.Is(err, simio.ErrFatal) {
			// Deferred writes report the failure via fail(); Run returns it.
			t.Errorf("%v: err = %v", b, err)
		}
	}
}

func TestBackendParsing(t *testing.T) {
	for _, b := range Backends() {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := ParseBackend("nonsense"); err == nil {
		t.Error("expected error for unknown backend")
	}
	if Backend(99).String() == "" {
		t.Error("unknown backend String empty")
	}
}

func TestBackendPredicates(t *testing.T) {
	if Pthread.IsTM() || CGL.IsTM() {
		t.Error("lock backends claim TM")
	}
	if !STM.IsTM() || !HTMDeferAll.IsTM() {
		t.Error("TM backends deny TM")
	}
	if !HTM.htmMode() || STMDeferAll.htmMode() {
		t.Error("htmMode wrong")
	}
	if STM.defersIO() || !STMDeferIO.defersIO() || !HTMDeferAll.defersIO() {
		t.Error("defersIO wrong")
	}
	if STMDeferIO.defersCompress() || !STMDeferAll.defersCompress() {
		t.Error("defersCompress wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Threads != 1 || c.RingSize != 16 || c.Buckets != 4096 || c.Chunk.AvgBits != 15 {
		t.Errorf("defaults = %+v", c)
	}
	c8 := Config{Threads: 8}.withDefaults()
	if c8.RingSize != 32 {
		t.Errorf("ring for 8 threads = %d, want 32", c8.RingSize)
	}
}

func TestEmptyInput(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	res, err := Run(Config{Backend: STMDeferAll, Threads: 2}, nil, fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 0 {
		t.Errorf("packets = %d for empty input", res.Packets)
	}
	data, _ := fs.ReadAll("out")
	decoded, err := Decode(data)
	if err != nil || len(decoded) != 0 {
		t.Errorf("empty stream decode = %v, %v", decoded, err)
	}
}

func TestGenInputProperties(t *testing.T) {
	a := GenInput(100_000, 0.5, 1)
	b := GenInput(100_000, 0.5, 1)
	if !bytes.Equal(a, b) {
		t.Error("GenInput not deterministic")
	}
	c := GenInput(100_000, 0.5, 2)
	if bytes.Equal(a, c) {
		t.Error("different seeds gave identical input")
	}
	if len(GenInput(12345, 0.3, 1)) != 12345 {
		t.Error("size not honored")
	}
	if GenInput(0, 0.5, 1) != nil {
		t.Error("zero size should be nil")
	}
	// Clamp extremes.
	if len(GenInput(1000, -5, 1)) != 1000 || len(GenInput(1000, 5, 1)) != 1000 {
		t.Error("ratio clamping broken")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{'X'}); err == nil {
		t.Error("bad type accepted")
	}
	if _, err := Decode([]byte{'U'}); err == nil {
		t.Error("truncated record accepted")
	}
	// A dup referencing a missing unique.
	rec := buildDupRecord(0, 99)
	if _, err := Decode(rec); err == nil {
		t.Error("dangling dup reference accepted")
	}
	// Out-of-order seq.
	recs := append(buildDupRecord(1, 0), buildDupRecord(0, 0)...)
	if _, err := Decode(recs); err == nil {
		t.Error("out-of-order records accepted")
	}
}
