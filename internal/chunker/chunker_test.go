package chunker

import (
	"bytes"
	"testing"
	"testing/quick"
)

// pseudorandom data generator (deterministic).
func randBytes(n int, seed uint64) []byte {
	out := make([]byte, n)
	x := seed
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

func TestSplitConcatenation(t *testing.T) {
	c := New(Config{AvgBits: 10})
	data := randBytes(100_000, 1)
	chunks := c.Split(data)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	var rebuilt []byte
	var off int64
	for _, ch := range chunks {
		if ch.Offset != off {
			t.Fatalf("offset = %d, want %d", ch.Offset, off)
		}
		rebuilt = append(rebuilt, ch.Data...)
		off += int64(len(ch.Data))
	}
	if !bytes.Equal(rebuilt, data) {
		t.Error("concatenation != input")
	}
}

func TestSizeBounds(t *testing.T) {
	cfg := Config{AvgBits: 10, Min: 256, Max: 4096}
	c := New(cfg)
	data := randBytes(200_000, 7)
	chunks := c.Split(data)
	for i, ch := range chunks {
		if len(ch.Data) > cfg.Max {
			t.Errorf("chunk %d len %d > max %d", i, len(ch.Data), cfg.Max)
		}
		if i < len(chunks)-1 && len(ch.Data) < cfg.Min {
			t.Errorf("non-final chunk %d len %d < min %d", i, len(ch.Data), cfg.Min)
		}
	}
}

func TestAverageSizeRoughlyMatches(t *testing.T) {
	c := New(Config{AvgBits: 10}) // expect ~1 KiB
	data := randBytes(1_000_000, 3)
	chunks := c.Split(data)
	avg := len(data) / len(chunks)
	if avg < 512 || avg > 2300 {
		t.Errorf("average chunk = %d, want roughly 1024 (min/max clamps shift it)", avg)
	}
}

// TestContentDefined: the defining property — a local edit early in the
// stream must not change chunk boundaries far after it. We prepend bytes
// and check the chunk digests resynchronize.
func TestContentDefined(t *testing.T) {
	c := New(Config{AvgBits: 10})
	base := randBytes(300_000, 42)
	shifted := append(randBytes(37, 99), base...)

	set := map[string]bool{}
	for _, ch := range c.Split(base) {
		set[string(ch.Data)] = true
	}
	shared := 0
	chunks := c.Split(shifted)
	for _, ch := range chunks {
		if set[string(ch.Data)] {
			shared++
		}
	}
	if shared < len(chunks)/2 {
		t.Errorf("only %d/%d chunks shared after a 37-byte prepend; boundaries are not content-defined", shared, len(chunks))
	}
}

// TestIdenticalRegionsProduceIdenticalChunks: duplicated content yields
// duplicate chunks (what makes dedup work).
func TestIdenticalRegionsProduceIdenticalChunks(t *testing.T) {
	c := New(Config{AvgBits: 10})
	block := randBytes(50_000, 5)
	data := append(append(append([]byte{}, block...), block...), block...)
	chunks := c.Split(data)
	counts := map[string]int{}
	for _, ch := range chunks {
		counts[string(ch.Data)]++
	}
	dups := 0
	for _, n := range counts {
		if n > 1 {
			dups += n - 1
		}
	}
	if dups == 0 {
		t.Error("no duplicate chunks for 3x-repeated content")
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	cfg := c.cfg
	if cfg.Window != 48 || cfg.AvgBits != 13 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Min != (1<<13)/4 || cfg.Max != (1<<13)*4 {
		t.Errorf("min/max defaults = %d/%d", cfg.Min, cfg.Max)
	}
	// Degenerate configs are repaired.
	c2 := New(Config{Window: 64, AvgBits: 4, Min: 1, Max: 2})
	cfg2 := c2.cfg
	if cfg2.Min < cfg2.Window || cfg2.Max < cfg2.Min {
		t.Errorf("repair failed: %+v", cfg2)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	c := New(Config{})
	if got := c.Split(nil); got != nil {
		t.Errorf("Split(nil) = %v", got)
	}
	small := []byte("tiny")
	chunks := c.Split(small)
	if len(chunks) != 1 || !bytes.Equal(chunks[0].Data, small) {
		t.Errorf("tiny input chunks = %v", chunks)
	}
}

// Property: Split always reconstructs the input for arbitrary data.
func TestSplitRoundTripProperty(t *testing.T) {
	c := New(Config{AvgBits: 8})
	f := func(data []byte) bool {
		chunks := c.Split(data)
		var rebuilt []byte
		for _, ch := range chunks {
			rebuilt = append(rebuilt, ch.Data...)
		}
		return bytes.Equal(rebuilt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: chunking is deterministic.
func TestDeterminismProperty(t *testing.T) {
	c := New(Config{AvgBits: 9})
	f := func(seed uint32, size uint16) bool {
		data := randBytes(int(size)+1000, uint64(seed)+1)
		a := c.Split(data)
		b := c.Split(data)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Offset != b[i].Offset || len(a[i].Data) != len(b[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
