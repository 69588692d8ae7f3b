// Dedup: end-to-end run of the PARSEC dedup kernel reproduction,
// comparing all synchronization backends on the same input and verifying
// each output decodes back to the original (Section 6.2 of the paper).
//
// Run with: go run ./examples/dedup [-size 4194304] [-threads 4]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"deferstm/internal/dedup"
	"deferstm/internal/simio"
)

func main() {
	size := flag.Int("size", 4<<20, "input bytes")
	threads := flag.Int("threads", 4, "worker threads")
	dup := flag.Float64("dup", 0.6, "duplication ratio")
	flag.Parse()
	if err := run(os.Stdout, *size, *threads, *dup); err != nil {
		log.Fatal(err)
	}
}

// run dedups one generated input under every backend, reports to out,
// and checks that each output decodes to the input, that the TM
// baselines serialize at least once per packet (their output is
// irrevocable), that deferring the output removes every serialization
// under STM, and that deferring compression too keeps HTM within
// capacity.
func run(out io.Writer, size, threads int, dup float64) error {
	input := dedup.GenInput(size, dup, 1234)
	fmt.Fprintf(out, "input: %d bytes, duplication ratio %.0f%%\n\n", len(input), dup*100)
	fmt.Fprintf(out, "%-14s %9s %8s %8s %8s %9s %10s %9s %8s\n",
		"backend", "time", "packets", "uniques", "dups", "out(KiB)", "serialRuns", "capAborts", "defOps")

	for _, b := range dedup.Backends() {
		fs := simio.NewFS(simio.PageCacheLatency())
		res, err := dedup.Run(dedup.Config{Backend: b, Threads: threads}, input, fs, "out")
		if err != nil {
			return fmt.Errorf("%v: %w", b, err)
		}
		data, err := fs.ReadAll("out")
		if err != nil {
			return err
		}
		decoded, err := dedup.Decode(data)
		if err != nil {
			return fmt.Errorf("%v: decode: %w", b, err)
		}
		if !bytes.Equal(decoded, input) {
			return fmt.Errorf("%v: output does not reconstruct the input", b)
		}
		fmt.Fprintf(out, "%-14s %8.3fs %8d %8d %8d %9d %10d %9d %8d\n",
			b, res.Elapsed.Seconds(), res.Packets, res.Uniques, res.Dups,
			res.BytesOut/1024, res.TM.SerialRuns, res.TM.AbortsCapacity, res.TM.DeferredOps)
		switch serial := res.TM.SerialRuns; {
		case (b == dedup.STM || b == dedup.HTM) && serial < res.Packets:
			return fmt.Errorf("%v: %d serial runs for %d packets", b, serial, res.Packets)
		case (b == dedup.STMDeferIO || b == dedup.STMDeferAll) && serial != 0:
			return fmt.Errorf("%v: serialized %d times", b, serial)
		case b == dedup.HTMDeferAll && res.TM.AbortsCapacity != 0:
			return fmt.Errorf("%v: %d capacity aborts", b, res.TM.AbortsCapacity)
		}
	}
	fmt.Fprintln(out, "\nok: every backend's output decoded to the original input; as in Figure 3,")
	fmt.Fprintln(out, "+DeferIO ends the baselines' per-packet serialization, +DeferAll HTM's overflow")
	return nil
}
