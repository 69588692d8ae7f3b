package bench

import (
	"context"
	"os/exec"
	"strings"
	"time"
)

// GitCommit best-effort resolves the working tree's HEAD short hash for
// the build-info gauge of the metrics endpoints (cmd/kvserver,
// cmd/kvreplica, cmd/stmtorture); empty when git (or a repo) is
// unavailable.
func GitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
