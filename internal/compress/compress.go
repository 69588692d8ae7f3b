// Package compress implements a from-scratch LZ77 byte compressor, the
// Compress stage of the dedup kernel.
//
// In the paper, dedup's Compress is the long-running *pure* function whose
// in-transaction execution overflows HTM capacity and stretches STM
// quiescence windows (Section 6.2); deferring it is what makes the
// +DeferAll configurations scale. The reproduction needs real CPU work
// with a real memory footprint, so this is a genuine compressor (an
// LZ4-style format: greedy hash-table matching, nibble-packed token
// lengths, two-byte offsets), not a stub.
//
// Format (after a 4-byte magic and a uvarint decompressed length):
//
//	sequence := token [litlen-ext*] literal* (offset16 [matchlen-ext*])?
//	token    := litLen<<4 | matchLen-4   (15 in a nibble = extended by
//	            255-continuation bytes)
//
// The final sequence of a stream carries only literals (no offset).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var magic = [4]byte{'D', 'L', 'Z', '1'}

// Errors returned by Decompress.
var (
	ErrCorrupt  = errors.New("compress: corrupt input")
	ErrTooShort = errors.New("compress: input too short")
)

const (
	minMatch  = 4
	maxOffset = 65535
	hashBits  = 14
	hashShift = 32 - hashBits
)

// TableBytes is the size of the compressor's match-finding hash table.
// It is part of Compress's working set: when Compress runs inside a
// hardware transaction, these bytes count against the transaction's write
// capacity (the dedup pipeline models exactly that).
const TableBytes = (1 << hashBits) * 4

func hash4(u uint32) uint32 { return (u * 2654435761) >> hashShift }

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// MaxCompressedLen bounds the output size for an input of length n.
func MaxCompressedLen(n int) int {
	return len(magic) + binary.MaxVarintLen64 + n + n/255 + 16
}

// Compress appends the compressed form of src to dst and returns the
// result. dst may be nil.
func Compress(dst, src []byte) []byte {
	dst = append(dst, magic[:]...)
	var lenBuf [binary.MaxVarintLen64]byte
	dst = append(dst, lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(src)))]...)

	if len(src) < minMatch+4 {
		// Too small to match anything: one literal-only sequence.
		return appendSequence(dst, src, 0, 0)
	}

	var table [1 << hashBits]int32 // position+1 of the last occurrence
	litStart := 0
	i := 0
	// Leave room so load32 never reads past the end.
	limit := len(src) - minMatch
	for i <= limit {
		h := hash4(load32(src, i))
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand >= 0 && i-cand <= maxOffset && load32(src, cand) == load32(src, i) {
			// Extend the match.
			matchLen := minMatch
			for i+matchLen < len(src) && src[cand+matchLen] == src[i+matchLen] {
				matchLen++
			}
			dst = appendSequence(dst, src[litStart:i], i-cand, matchLen)
			// Index a couple of positions inside the match to help
			// later matches, then skip past it.
			end := i + matchLen
			for j := i + 1; j < end && j <= limit; j += 7 {
				table[hash4(load32(src, j))] = int32(j + 1)
			}
			i = end
			litStart = i
			continue
		}
		i++
	}
	// Trailing literals.
	return appendSequence(dst, src[litStart:], 0, 0)
}

// appendSequence emits one sequence. offset==0 means a final literal-only
// sequence (no match part is written).
func appendSequence(dst, lits []byte, offset, matchLen int) []byte {
	litLen := len(lits)
	if offset == 0 && litLen == 0 {
		return dst
	}
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	mlCode := 0
	if offset != 0 {
		mlCode = matchLen - minMatch
		if mlCode >= 15 {
			token |= 15
		} else {
			token |= byte(mlCode)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendExtLen(dst, litLen-15)
	}
	dst = append(dst, lits...)
	if offset != 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if mlCode >= 15 {
			dst = appendExtLen(dst, mlCode-15)
		}
	}
	return dst
}

func appendExtLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// ChainBytes is the size of the hash-chain table CompressLevel allocates
// for an input of n bytes — also part of the compressor's working set
// when it runs inside a hardware transaction.
func ChainBytes(n int) int { return 4 * n }

// CompressLevel appends the compressed form of src to dst, searching up
// to `effort` match candidates per position through hash chains (gzip-
// style). effort <= 1 is identical to Compress (single candidate); higher
// effort finds longer matches at roughly proportional CPU cost. The
// output format is identical and decodes with Decompress.
//
// Dedup's Compress stage uses a high effort: it is the "long-running pure
// function" of the paper's Section 6.2, and its working set (input,
// output, the 64 KiB head table, and a 4n-byte chain table) is what
// overflows hardware-transaction capacity.
func CompressLevel(dst, src []byte, effort int) []byte {
	if effort <= 1 {
		return Compress(dst, src)
	}
	dst = append(dst, magic[:]...)
	var lenBuf [binary.MaxVarintLen64]byte
	dst = append(dst, lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(src)))]...)
	if len(src) < minMatch+4 {
		return appendSequence(dst, src, 0, 0)
	}

	var head [1 << hashBits]int32 // position+1 of most recent occurrence
	prev := make([]int32, len(src))
	insert := func(j int) {
		h := hash4(load32(src, j))
		prev[j] = head[h]
		head[h] = int32(j + 1)
	}

	litStart := 0
	i := 0
	limit := len(src) - minMatch
	for i <= limit {
		h := hash4(load32(src, i))
		bestLen, bestOff := 0, 0
		cand := int(head[h]) - 1
		for depth := effort; cand >= 0 && depth > 0; depth-- {
			if i-cand > maxOffset {
				break // chain is recency-ordered; the rest are farther
			}
			if load32(src, cand) == load32(src, i) {
				l := minMatch
				for i+l < len(src) && src[cand+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestOff = l, i-cand
				}
			}
			cand = int(prev[cand]) - 1
		}
		if bestLen >= minMatch {
			dst = appendSequence(dst, src[litStart:i], bestOff, bestLen)
			end := i + bestLen
			for j := i; j < end && j <= limit; j++ {
				insert(j)
			}
			i = end
			litStart = i
			continue
		}
		insert(i)
		i++
	}
	return appendSequence(dst, src[litStart:], 0, 0)
}

// Decompress decodes src (produced by Compress) and returns the original
// bytes. It never panics on corrupt input.
func Decompress(src []byte) ([]byte, error) {
	if len(src) < len(magic)+1 {
		return nil, ErrTooShort
	}
	for i := range magic {
		if src[i] != magic[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	n, k := binary.Uvarint(src[len(magic):])
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad length", ErrCorrupt)
	}
	if n > 1<<32 {
		return nil, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	want, pos := int(n), len(magic)+k

	var err error
	out := make([]byte, 0, want)
	for pos < len(src) {
		token := src[pos]
		pos++
		litLen := int(token >> 4)
		if litLen == 15 {
			litLen, pos, err = readExtLen(src, pos, litLen)
			if err != nil {
				return nil, err
			}
		}
		if pos+litLen > len(src) {
			return nil, fmt.Errorf("%w: literal overrun", ErrCorrupt)
		}
		out = append(out, src[pos:pos+litLen]...)
		pos += litLen
		if pos == len(src) {
			break // final literal-only sequence
		}
		if pos+2 > len(src) {
			return nil, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[pos]) | int(src[pos+1])<<8
		pos += 2
		if offset == 0 || offset > len(out) {
			return nil, fmt.Errorf("%w: bad offset %d at %d", ErrCorrupt, offset, len(out))
		}
		matchLen := int(token & 15)
		if matchLen == 15 {
			matchLen, pos, err = readExtLen(src, pos, matchLen)
			if err != nil {
				return nil, err
			}
		}
		matchLen += minMatch
		if len(out)+matchLen > want {
			return nil, fmt.Errorf("%w: output overrun", ErrCorrupt)
		}
		// Byte-by-byte copy: offsets shorter than the match length
		// replicate (RLE-style), as in LZ4.
		start := len(out) - offset
		for i := 0; i < matchLen; i++ {
			out = append(out, out[start+i])
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("%w: size mismatch got %d want %d", ErrCorrupt, len(out), want)
	}
	return out, nil
}

func readExtLen(src []byte, pos, base int) (int, int, error) {
	n := base
	for {
		if pos >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length", ErrCorrupt)
		}
		b := src[pos]
		pos++
		n += int(b)
		if b != 255 {
			return n, pos, nil
		}
	}
}
