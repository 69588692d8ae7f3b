package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// pyQuartiles returns the quartiles of sorted the way Python's
// statistics.quantiles(values, n=4) does (its default, exclusive,
// method), which is what the driver gates on.
func pyQuartiles(sorted []float64) (q [3]float64) {
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			q = [3]float64{sorted[0], sorted[0], sorted[0]}
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// worseBy is how much worse b is than a, as a share of a (negative when
// b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.higher() {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// selfcheckRuns is the size of each of the two sets of runs the
// self-check compares: ten, as the driver takes.
const selfcheckRuns = 10

// runSelfcheck is the noise study: two sets of full runs of this same
// binary, one process per workload run and a new seed each, exactly as
// the driver runs them. Per workload and end-to-end metric it prints each
// set's quartiles and fails unless the interquartile range of every set
// is within the metric's bound and the second median is not worse than
// the first by more than the bound (setup_s is exempt from the spread
// rule, as it is in the driver).
func runSelfcheck(sp *spec, seconds int, seed uint64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "selfcheck: %v\n", err)
		return 1
	}
	// values[set][workload][metric] = one number per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < selfcheckRuns; run++ {
			for _, w := range sp.workloads {
				s := seed + uint64(set*selfcheckRuns+run)
				o, err := runChild(exe, w.name, s, seconds)
				if err != nil {
					fmt.Fprintf(stderr, "selfcheck: %s seed %d: %v\n", w.name, s, err)
					return 1
				}
				if !o.Correct {
					fmt.Fprintf(stderr, "selfcheck: %s seed %d: %d of %d operations failed\n", w.name, s, o.Failed, o.Attempted)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for k, v := range o.Metrics {
					values[set][w.name][k] = append(values[set][w.name][k], v.Value)
				}
				fmt.Fprintf(stderr, "selfcheck: set %d run %d %s done\n", set+1, run+1, w.name)
			}
		}
	}

	code := 0
	fmt.Fprintf(stdout, "| workload | metric | set 1 q1 / median / q3 | IQR/median | set 2 q1 / median / q3 | IQR/median | median 2 worse by | bound | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range sp.workloads {
		for _, d := range sp.EndToEnd {
			var q [2][3]float64
			var spread [2]float64
			for set := range values {
				q[set] = pyQuartiles(sortedCopy(values[set][w.name][d.Name]))
				spread[set] = ratio(q[set][2]-q[set][0], q[set][1])
			}
			drift := worseBy(d, q[0][1], q[1][1])
			verdict := "ok"
			if drift > d.Bound || (d.Name != "setup_s" && max(spread[0], spread[1]) > d.Bound) {
				verdict, code = "DISAGREE", 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.1f%% | %s | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.name, d.Name, fmtQ(q[0]), 100*spread[0], fmtQ(q[1]), 100*spread[1], 100*drift, 100*d.Bound, verdict)
		}
	}
	return code
}

func fmtQ(q [3]float64) string {
	var parts []string
	for _, v := range q {
		parts = append(parts, strconv.FormatFloat(v, 'g', 5, 64))
	}
	return strings.Join(parts, " / ")
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(exe, workload string, seed uint64, seconds int) (*outcome, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	for sc := bufio.NewScanner(strings.NewReader(string(out))); sc.Scan(); {
		last = sc.Text()
	}
	var o outcome
	if err := json.Unmarshal([]byte(last), &o); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &o, nil
}
