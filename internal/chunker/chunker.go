// Package chunker implements content-defined chunking with a rolling
// hash, the fragmentation stage of the PARSEC dedup kernel.
//
// Dedup's pipeline first splits the input stream at content-defined
// boundaries (so that identical content produces identical chunks
// regardless of its position in the stream), then deduplicates chunks by
// their digest. This package provides the boundary detection: a
// buzhash-style rolling hash over a sliding window, declaring a boundary
// whenever the low bits of the hash match a mask, with minimum and
// maximum chunk-size clamps.
package chunker

// Config parameterizes a Chunker.
type Config struct {
	// Window is the rolling-hash window in bytes. 0 means 48.
	Window int
	// AvgBits sets the expected chunk size to 2^AvgBits bytes (boundary
	// probability 2^-AvgBits per position). 0 means 13 (8 KiB average).
	AvgBits uint
	// Min and Max clamp chunk sizes. 0 means Avg/4 and Avg*4.
	Min, Max int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 48
	}
	if c.AvgBits == 0 {
		c.AvgBits = 13
	}
	avg := 1 << c.AvgBits
	if c.Min <= 0 {
		c.Min = avg / 4
	}
	if c.Max <= 0 {
		c.Max = avg * 4
	}
	if c.Min < c.Window {
		c.Min = c.Window
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	return c
}

// table is the byte-to-hash mapping for the rolling hash, generated
// deterministically (splitmix64) so chunk boundaries are stable across
// runs and platforms.
var table = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x2545F4914F6CDD1D)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

func rol(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Chunk is one content-defined chunk of the input.
type Chunk struct {
	Offset int64  // position of the chunk in the stream
	Data   []byte // chunk contents (aliases the input for Split)
}

// Chunker finds chunk boundaries in byte streams.
type Chunker struct {
	cfg  Config
	mask uint64
}

// New creates a Chunker.
func New(cfg Config) *Chunker {
	cfg = cfg.withDefaults()
	return &Chunker{cfg: cfg, mask: (1 << cfg.AvgBits) - 1}
}

// Split partitions data into content-defined chunks. The returned chunks
// alias data (no copying); their concatenation is exactly data.
func (c *Chunker) Split(data []byte) []Chunk {
	var chunks []Chunk
	var start int
	for start < len(data) {
		n := c.nextBoundary(data[start:])
		chunks = append(chunks, Chunk{Offset: int64(start), Data: data[start : start+n]})
		start += n
	}
	return chunks
}

// nextBoundary returns the length of the next chunk starting at data[0].
func (c *Chunker) nextBoundary(data []byte) int {
	if len(data) <= c.cfg.Min {
		return len(data)
	}
	w := c.cfg.Window
	var h uint64
	// Prime the window ending at position Min-1.
	primeFrom := c.cfg.Min - w
	for i := primeFrom; i < c.cfg.Min; i++ {
		h = rol(h, 1) ^ table[data[i]]
	}
	limit := c.cfg.Max
	if limit > len(data) {
		limit = len(data)
	}
	for i := c.cfg.Min; i < limit; i++ {
		// Slide: remove data[i-w], add data[i].
		h = rol(h, 1) ^ rol(table[data[i-w]], uint(w)) ^ table[data[i]]
		if h&c.mask == c.mask {
			return i + 1
		}
	}
	return limit
}
