// Command perfbench is GreenVM's repository benchmark. It drives the
// simulator's layers from outside, through their public functions, on
// one of two workloads and prints every metric by name with its unit;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing attached. With -trace 1 the run is the per-layer ledger: the
// same work is run untraced and then traced (spans around the layer
// calls, a CPU profile, the program's own counters), the two runs'
// counts must agree, and the ledger is printed with the end-to-end
// metric each entry is expected to move. See README.md.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// processStart anchors the first set-up's clock: set-up time is
// measured from process start to the first timed op.
var processStart = time.Now()

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// ledgerDir holds the traced run's spans and CPU profile, relative to
// the checkout root the benchmark runs from.
const ledgerDir = ".bench_build/ledger"

// window is the timed run's length.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// report is what a workload measured: the correctness tally and its
// metric values by catalog name.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check tallies one checked output.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

var workloads = map[string]func(config) (*report, error){
	"fleet-city":  runCity,
	"offload-tcp": runTCP,
}

func main() {
	name := flag.String("workload", "", "workload: fleet-city or offload-tcp")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 40, "length of the timed run in host seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced per-layer ledger")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(cfg)
	if err == nil {
		err = emit(*name, cfg.trace, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the run's metrics — the per-layer ledger table first for
// a traced run — and the result object as the last line.
func emit(workload string, traced bool, rep *report) error {
	if rep.attempted == 0 {
		return errors.New(workload + ": no op was attempted")
	}
	out := resultOut{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := rep.values[m.name]
			if !ok {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", workload, m.name)
			}
			out.Metrics[m.name] = metricOut{finite(v), m.unit}
		}
	} else {
		fmt.Printf("per-layer ledger, workload %s (0 = layer not on this workload's path)\n", workload)
		for _, m := range perLayer {
			v := finite(rep.values[m.name])
			out.Metrics[m.name] = metricOut{v, m.unit}
			fmt.Printf("  %-34s %14.4f %-6s moves %s\n", m.name, v, m.unit, m.moves)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// setUp runs one workload set-up n times and returns the median
// duration in seconds with the last set-up's state. The first set-up
// is timed from process start; each set-up's predecessor is released
// first (release may be nil).
func setUp[T any](n int, build func() (T, error), release func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		} else if release != nil {
			release(cur)
		}
		next, err := build()
		if err != nil {
			return cur, 0, err
		}
		cur = next
		times = append(times, time.Since(start).Seconds())
	}
	return cur, median(times), nil
}

// setUps is how many times an end-to-end run sets up; setup_s is the
// median.
const setUps = 3

// profileSeed seeds experiments.Prepare's offline profile. The profile
// is part of set-up and the same for every workload seed, so the pinned
// digests of fleet-city and offload-tcp hold whatever --seed is; the
// workload seed drives the cohorts and the input streams.
const profileSeed = 1

// Deterministic seed derivation (splitmix64), so each input stream is
// a pure function of the workload seed and a salt.
func derive(seed, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// quantile is the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// traceOverhead records the untraced and traced throughput of the same
// work and the tracing cost between them.
func traceOverhead(rep *report, untraced, traced float64) {
	rep.values["trace.untraced_ops_per_s"] = untraced
	rep.values["trace.traced_ops_per_s"] = traced
	rep.values["trace.overhead_pct"] = 100 * ratio(untraced-traced, untraced)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
