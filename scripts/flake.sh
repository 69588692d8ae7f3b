#!/bin/sh
# Flake check for a new or changed test: one green run is weak evidence
# for a test that fails one time in seven. Runs the named tests 200 times
# at GOMAXPROCS 2 (where goroutines interleave as on real cores), then 30
# times under the race detector. Exits nonzero on the first failure.
#
#	scripts/flake.sh internal/kv TestGSNsRiseAcrossRestart
#	scripts/flake.sh internal/stm 'TestCommit|TestSnapshot'
#
# Each pass stops at its first failing test (-failfast) and runs under a
# timeout sized from one timed run of the same tests (four times the
# pass's expected length, plus a minute), so a test that hangs ends the
# pass as a timeout within that bound instead of after go test's
# 10-minute default. Every pass keeps its whole log; after a failure the
# failed tests and their assertion lines are printed again below the log,
# where a timeout's goroutine dump cannot bury them.
set -eu

if [ $# -ne 2 ]; then
	echo "usage: scripts/flake.sh <pkg> <regexp>" >&2
	exit 2
fi
pkg=./${1#./}
run=$2

cd "$(dirname "$0")/.."
logs=$(mktemp -d "${TMPDIR:-/tmp}/flake.XXXXXX")

# pass NAME COUNT GOMAXPROCS [go test build flags...]: builds the test
# binary, times one run, then runs COUNT more under -failfast and the
# sized -timeout. An empty GOMAXPROCS leaves the machine's default.
pass() {
	name=$1 count=$2 procs=$3
	shift 3
	bin=$logs/$name.test
	go test -c -o "$bin" "$@" "$pkg"
	t0=$(date +%s%N)
	if ! (cd "$pkg" && env ${procs:+GOMAXPROCS=$procs} "$bin" -test.count=1 -test.run "$run") >"$logs/$name-timing.log" 2>&1; then
		fail "$logs/$name-timing.log"
	fi
	ms=$((($(date +%s%N) - t0) / 1000000))
	timeout=$((4 * count * ms / 1000 + 60))
	echo "==> $pkg -run '$run' -count=$count${procs:+ at GOMAXPROCS=$procs}${*:+ $*} (one run took ${ms}ms; -timeout ${timeout}s)"
	status=$logs/$name.status
	{
		st=0
		(cd "$pkg" && env ${procs:+GOMAXPROCS=$procs} "$bin" -test.count="$count" -test.run "$run" \
			-test.failfast -test.timeout "${timeout}s") 2>&1 || st=$?
		echo "$st" >"$status"
	} | tee "$logs/$name.log"
	[ "$(cat "$status")" = 0 ] || fail "$logs/$name.log"
}

fail() {
	echo "==> FAILED: $pkg -run '$run'; whole log: $1" >&2
	grep -E -e '^ *--- FAIL|^ +[^ /]+_test\.go:[0-9]+: |^panic: test timed out|^[[:space:]]+(running tests:|Test[^ ]* \()' \
		"$1" | head -n 200 >&2 || true
	exit 1
}

pass gomaxprocs2 200 2
pass race 30 '' -race
rm -r "$logs"
echo "flake check passed: $pkg $run"
