package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

const (
	valueLen  = 64
	seqDigits = 15
)

// inputs is everything a workload's operations are drawn from. It is a
// pure function of the seed: the same seed gives the same keys, values
// and per-thread random streams.
type inputs struct {
	seed uint64
	keys []string // k%07d
	pad  string   // seeded filler completing every value to 64 bytes
}

func newInputs(seed uint64, nkeys int) *inputs {
	in := &inputs{seed: seed, keys: make([]string, nkeys)}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("k%07d", i)
	}
	r := in.rng(0xfeed)
	pad := make([]byte, valueLen-1-seqDigits)
	for i := range pad {
		pad[i] = 'a' + byte(r.IntN(26))
	}
	in.pad = string(pad)
	return in
}

// rng returns the deterministic random stream of one load thread.
func (in *inputs) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(in.seed, stream))
}

// value builds a 64-byte value: one tag byte naming the writer ('p' for
// the preload, 'a'/'b' for load thread 0/1), a 15-digit zero-padded
// number (a per-writer sequence number, or a balance), and the filler.
func (in *inputs) value(tag byte, n uint64) string {
	var b [valueLen]byte
	b[0] = tag
	for i := seqDigits; i >= 1; i-- {
		b[i] = '0' + byte(n%10)
		n /= 10
	}
	copy(b[1+seqDigits:], in.pad)
	return string(b[:])
}

// preloadValue is the value every store is preloaded with for key i.
func (in *inputs) preloadValue(i int) string { return in.value('p', uint64(i)) }

// parseValue splits a value built by value; ok is false for anything else.
func parseValue(v string) (tag byte, n uint64, ok bool) {
	if len(v) != valueLen {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(v[1:1+seqDigits], 10, 64)
	return v[0], n, err == nil
}

// zipf draws ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^s by inverting a
// precomputed CDF (math/rand's Zipf needs s > 1; the workload uses 0.99).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// scatter maps a popularity rank to a key index so that hot keys spread
// over both shards; n must be a power of two (odd multiplier = bijection).
func scatter(rank, n int) int {
	return int((uint64(rank)*0x9E3779B97F4A7C15 + 0x7F4A7C15) & uint64(n-1))
}

// op is one generated KV request.
type op struct {
	put bool
	key int
}

// opStream draws a workload's request mix: putFrac of the requests are
// PUTs, keys are uniform or Zipf(0.99).
type opStream struct {
	r       *rand.Rand
	nkeys   int
	putFrac float64
	z       *zipf
}

func (s *opStream) next() op {
	o := op{put: s.r.Float64() < s.putFrac}
	if s.z != nil {
		o.key = scatter(s.z.rank(s.r.Float64()), s.nkeys)
	} else {
		o.key = s.r.IntN(s.nkeys)
	}
	return o
}

// mixOf returns a request stream of the given mix on its own seeded
// random stream.
func mixOf(in *inputs, putFrac float64, zipfKeys bool, stream uint64) *opStream {
	s := &opStream{r: in.rng(stream), nkeys: len(in.keys), putFrac: putFrac}
	if zipfKeys {
		s.z = newZipf(len(in.keys), 0.99)
	}
	return s
}
