package iobench

import (
	"testing"

	"deferstm/internal/stm"
)

func fastCfg(mode Mode, files, threads, ops int, keepOpen bool) Config {
	return Config{
		Mode:      mode,
		Files:     files,
		Threads:   threads,
		Ops:       ops,
		KeepOpen:  keepOpen,
		NoLatency: true,
	}
}

// TestAllModesVerify: every mode, open/close and keep-open variants,
// multiple thread counts — the produced files must contain exactly Ops
// records with per-file sequence numbers in order.
func TestAllModesVerify(t *testing.T) {
	for _, mode := range []Mode{CGL, FGL, Irrevoc, Defer} {
		for _, keepOpen := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				mode, keepOpen, threads := mode, keepOpen, threads
				name := mode.String()
				if keepOpen {
					name += "-keepopen"
				}
				name += map[int]string{1: "-t1", 4: "-t4"}[threads]
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := fastCfg(mode, 2, threads, 400, keepOpen)
					res, fs, err := Run(cfg)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if err := Verify(fs, cfg); err != nil {
						t.Fatal(err)
					}
					if res.Ops != 400 {
						t.Errorf("ops = %d", res.Ops)
					}
					if res.OpsPerSec() <= 0 {
						t.Error("throughput not positive")
					}
				})
			}
		}
	}
}

// TestIrrevocSerializesEveryOp: each operation runs as a serial
// transaction.
func TestIrrevocSerializesEveryOp(t *testing.T) {
	cfg := fastCfg(Irrevoc, 2, 2, 100, false)
	res, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TM.SerialRuns < 100 {
		t.Errorf("serial runs = %d, want >= 100", res.TM.SerialRuns)
	}
}

// TestDeferUsesDeferredOps: every operation defers exactly one I/O op and
// never serializes for output.
func TestDeferUsesDeferredOps(t *testing.T) {
	cfg := fastCfg(Defer, 2, 2, 100, false)
	res, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TM.DeferredOps != 100 {
		t.Errorf("deferred ops = %d, want 100", res.TM.DeferredOps)
	}
	if res.TM.SerialRuns > 10 {
		t.Errorf("serial runs = %d; defer mode should rarely serialize", res.TM.SerialRuns)
	}
}

// TestOpenCloseCounts: in open/close mode each op opens twice (read +
// append); in keep-open mode no per-op opens occur.
func TestOpenCloseCounts(t *testing.T) {
	cfg := fastCfg(CGL, 1, 1, 50, false)
	res, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 initial create + 2 per op.
	if res.FS.Opens < 100 {
		t.Errorf("opens = %d, want >= 100", res.FS.Opens)
	}
	cfgK := fastCfg(CGL, 1, 1, 50, true)
	resK, _, err := Run(cfgK)
	if err != nil {
		t.Fatal(err)
	}
	if resK.FS.Opens > 5 {
		t.Errorf("keep-open opens = %d, want few", resK.FS.Opens)
	}
	if resK.FS.Writes != 50 {
		t.Errorf("keep-open writes = %d", resK.FS.Writes)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{CGL, FGL, Irrevoc, Defer} {
		if m.String() != modeNames[m] {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), modeNames[m])
		}
	}
	if Mode(42).String() != "Mode(42)" {
		t.Errorf("unknown mode string %q", Mode(42).String())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Files != 1 || c.Threads != 1 || c.Ops != 1000 {
		t.Errorf("defaults = %+v", c)
	}
	if c.Latency.Open == 0 {
		t.Error("latency model not defaulted")
	}
	cn := Config{NoLatency: true}.withDefaults()
	if cn.Latency.Open != 0 {
		t.Error("NoLatency ignored")
	}
}

// TestVerifyDetectsTampering: Verify must fail on corrupted output.
func TestVerifyDetectsTampering(t *testing.T) {
	cfg := fastCfg(FGL, 1, 1, 10, false)
	_, fs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Append a bogus duplicate-seq record.
	f, _ := fs.OpenAppend("data-0")
	_, _ = f.Write([]byte("data-0 seq=3 len=0 x\n"))
	_ = f.Close()
	if err := Verify(fs, cfg); err == nil {
		t.Error("Verify accepted out-of-order seq")
	}
}

// TestDeferUnderHTM: the microbenchmark's defer mode runs on the
// simulated HTM too — deferral needs no syscalls inside transactions, so
// the hardware path commits (the paper notes HTM trends match STM).
func TestDeferUnderHTM(t *testing.T) {
	cfg := fastCfg(Defer, 2, 2, 200, false)
	cfg.TM = stm.Config{Mode: stm.ModeHTM}
	res, fs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(fs, cfg); err != nil {
		t.Fatal(err)
	}
	if res.TM.DeferredOps != 200 {
		t.Errorf("deferred ops = %d", res.TM.DeferredOps)
	}
	// HTM capacity is never exceeded by the tiny transactional part.
	if res.TM.AbortsCapacity != 0 {
		t.Errorf("capacity aborts = %d", res.TM.AbortsCapacity)
	}
}

// TestIrrevocUnderHTM: irrevocable ops under HTM use the serial path.
func TestIrrevocUnderHTM(t *testing.T) {
	cfg := fastCfg(Irrevoc, 2, 2, 100, false)
	cfg.TM = stm.Config{Mode: stm.ModeHTM}
	res, fs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(fs, cfg); err != nil {
		t.Fatal(err)
	}
	if res.TM.SerialRuns < 100 {
		t.Errorf("serial runs = %d", res.TM.SerialRuns)
	}
}
