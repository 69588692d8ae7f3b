package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestAuditInCommitOrder runs the example small and checks its claim: no
// transaction can observe "transferred but not logged". Each deferred
// write holds the log's lock from its transaction's commit, so the log
// lists the transfers in commit order: every entry's balances sum to the
// total, and alice's balance moves by exactly one unit per entry.
func TestAuditInCommitOrder(t *testing.T) {
	audit, err := run(io.Discard, 5)
	if err != nil {
		t.Fatal(err)
	}
	alice := 100
	for i, line := range strings.Split(strings.TrimSuffix(string(audit), "\n"), "\n") {
		var from, to int
		_, balances, _ := strings.Cut(line, "now ")
		if _, err := fmt.Sscanf(balances, "%d/%d)", &from, &to); err != nil {
			t.Fatalf("entry %d %q: %v", i, line, err)
		}
		if from+to != 150 {
			t.Fatalf("entry %d %q: balances sum to %d", i, line, from+to)
		}
		next := from // a->b: alice paid
		if strings.HasPrefix(line, "b->a") {
			next = to
		}
		if d := next - alice; d != 1 && d != -1 {
			t.Fatalf("entry %d %q: alice %d -> %d, not one transfer", i, line, alice, next)
		}
		alice = next
	}
}
