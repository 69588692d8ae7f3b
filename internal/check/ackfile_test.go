package check

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"deferstm/internal/stm"
)

// ackedPrefixByHistory is how AckedPrefixLanes used to answer: it built
// one append per LSN up to max(acked, held) on every lane, published
// each lane's watermark at its acked LSN, and ran RecoveredPrefixLanes
// over that history. It is kept as the oracle the direct comparison is
// checked against.
func ackedPrefixByHistory(acked, held []uint64) []Violation {
	var events []stm.Event
	lanes := make([]RecoveredLane, len(held))
	txID := uint64(0)
	for lane := range held {
		lanes[lane] = RecoveredLane{LogVar: uint64(lane), LastLSN: held[lane]}
		for lsn := uint64(1); lsn <= max(held[lane], acked[lane]); lsn++ {
			txID++
			events = append(events, stm.Event{Kind: stm.EvWALAppend, TxID: txID, Var: uint64(lane), Aux: lsn})
		}
		events = append(events, stm.Event{Kind: stm.EvWALDurable, Var: uint64(lane), Aux: acked[lane]})
	}
	return RecoveredPrefixLanes(events, lanes)
}

// TestAckedPrefixLanes pins the verdicts -verify prints, by table and
// against the history-based oracle on random (acked, held) vectors.
func TestAckedPrefixLanes(t *testing.T) {
	lost := func(lane int, held, acked uint64) Violation {
		return Violation{Rule: RuleDurability, Msg: fmt.Sprintf(
			"lane %d lost acknowledged records: recovered through LSN %d but LSN %d was acked durable", lane, held, acked)}
	}
	for _, c := range []struct {
		acked, held []uint64
		want        []Violation
	}{
		{acked: []uint64{0}, held: []uint64{0}},
		{acked: []uint64{5}, held: []uint64{5}},
		{acked: []uint64{3}, held: []uint64{9}},
		{acked: []uint64{4}, held: []uint64{2}, want: []Violation{lost(0, 2, 4)}},
		{acked: []uint64{1, 7, 0, 3}, held: []uint64{1, 6, 2, 0},
			want: []Violation{lost(1, 6, 7), lost(3, 0, 3)}},
		{acked: []uint64{1, 2}, held: []uint64{1}, want: []Violation{{Rule: RuleDurability,
			Msg: "ack vector names 2 lanes, state under test has 1"}}},
	} {
		if got := AckedPrefixLanes(c.acked, c.held); !reflect.DeepEqual(got, c.want) {
			t.Errorf("AckedPrefixLanes(%v, %v) = %v, want %v", c.acked, c.held, got, c.want)
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.IntN(5)
		acked, held := make([]uint64, n), make([]uint64, n)
		for l := range acked {
			acked[l], held[l] = uint64(rng.IntN(6)), uint64(rng.IntN(6))
		}
		if got, want := AckedPrefixLanes(acked, held), ackedPrefixByHistory(acked, held); !reflect.DeepEqual(got, want) {
			t.Fatalf("acked %v held %v: got %v, the history check says %v", acked, held, got, want)
		}
	}
}

// TestParseAckfile: an ackfile is "lane lsn" lines, the highest LSN per
// lane wins, and any other line shape — a bare decimal included — is
// refused.
func TestParseAckfile(t *testing.T) {
	got, err := parseAckfile("0 4\n\n2 9\n0 7\n2 3\n", 4)
	if err != nil || !reflect.DeepEqual(got, []uint64{7, 0, 9, 0}) {
		t.Fatalf("ParseAckfile = %v, %v; want [7 0 9 0]", got, err)
	}
	if got, err := parseAckfile("", 2); err != nil || !reflect.DeepEqual(got, []uint64{0, 0}) {
		t.Fatalf("empty ackfile = %v, %v", got, err)
	}
	for _, bad := range []string{"12\n", "0 1 2\n", "x 1\n", "0 y\n", "-1 3\n", "2 3\n"} {
		if _, err := parseAckfile(bad, 2); err == nil {
			t.Errorf("parseAckfile(%q) accepted", strings.TrimSpace(bad))
		}
	}
}
