#!/bin/sh
# Flake check for a new or changed test: one green run is weak evidence
# for a test that fails one time in seven. Runs the named tests 200 times
# at GOMAXPROCS 2 (where goroutines interleave as on real cores), then 30
# times under the race detector. Exits nonzero on the first failure.
#
#	scripts/flake.sh internal/kv TestGSNsRiseAcrossRestart
#	scripts/flake.sh internal/stm 'TestCommit|TestSnapshot'
set -eu

if [ $# -ne 2 ]; then
	echo "usage: scripts/flake.sh <pkg> <regexp>" >&2
	exit 2
fi
pkg=./${1#./}
run=$2

cd "$(dirname "$0")/.."

echo "==> $pkg -run '$run' -count=200 at GOMAXPROCS=2"
GOMAXPROCS=2 go test -count=200 -run "$run" "$pkg"
echo "==> $pkg -run '$run' -count=30 -race"
go test -count=30 -race -run "$run" "$pkg"
echo "flake check passed: $pkg $run"
