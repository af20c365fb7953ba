// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (tatp, hotspot, long_reader or restart) on each of the three
// concurrency control schemes in turn (1V, MV/L, MV/O), with closed-loop
// clients, one per CPU, inside this process. It checks every scheme's
// outputs against a model it computes itself and prints the metrics named in
// BENCHMARK.json as the last line of standard output, one JSON object:
//
//	perfbench --workload tatp --seed 1 --seconds 9 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans recorded around every call into the program and prints the
// per-layer metrics instead. --selftest corrupts each output model and
// exits non-zero unless every check fires. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// scheme is one concurrency control scheme under test, with the suffix its
// metrics carry.
type scheme struct {
	tag string
	cc  core.Scheme
}

// schemes run in this fixed order in every run, so a scheme always follows
// the same predecessor and run-to-run spread is not inflated by ordering.
var schemes = []scheme{
	{"1v", core.SingleVersion},
	{"mvl", core.MVPessimistic},
	{"mvo", core.MVOptimistic},
}

// params is what every workload receives for one scheme.
type params struct {
	sc      scheme
	seed    int64
	clients int
	measure time.Duration // measured interval for this scheme
	trace   bool
	// selftest corrupts the output model after the run and checks again.
	selftest bool
}

// runner runs one scheme end to end: set-up, warm-up, the measured
// interval, the output checks, and teardown.
type runner func(p params) (*result, error)

// traceDir and dataDir are relative to the working directory, the root of
// the checkout the benchmark was built in.
var (
	traceDir = ".bench_build/perfbench-trace"
	dataDir  = ".bench_build/perfbench-data"
)

// spec is a workload and how many instances of each scheme one run
// measures. Instances run interleaved across the schemes (1V, MV/L, MV/O,
// 1V, ...), each with a freshly loaded database and an equal share of the
// measured time, so a run averages over memory layouts and over drift of
// the machine instead of resting on one of each.
type spec struct {
	run       runner
	instances int
}

var workloads = map[string]spec{
	"tatp":        {runTATP, 3},
	"hotspot":     {runHotspot, 1},
	"long_reader": {runLongReader, 1},
	"restart":     {runRestart, 1},
}

// metric is one entry of the printed "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: tatp, hotspot, long_reader or restart")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 9, "measured seconds, shared equally by the three schemes")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	selftest := flag.Bool("selftest", false, "corrupt each output model and check that its check fires")
	flag.Parse()

	clients := runtime.NumCPU()
	if clients < 2 {
		// long_reader needs one reporter and one updater.
		clients = 2
	}
	if *selftest {
		return runSelftest(*seed, clients)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload tatp|hotspot|long_reader|restart --seed N --seconds S --trace 0|1\n")
		return 2
	}
	per := time.Duration(*seconds) * time.Second / time.Duration(len(schemes)*wl.instances)

	byScheme := map[string][]*result{}
	for i := 0; i < wl.instances; i++ {
		for _, sc := range schemes {
			res, err := wl.run(params{sc: sc, seed: *seed, clients: clients, measure: per, trace: *traceFlag == 1})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s on %s: %v\n", *name, sc.tag, err)
				return 1
			}
			byScheme[sc.tag] = append(byScheme[sc.tag], res)
		}
	}

	rep := report{Correct: true, Metrics: map[string]metric{}}
	var setup float64
	for _, sc := range schemes {
		res := merge(byScheme[sc.tag])
		if res.checkErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s on %s: output check failed: %v\n", *name, sc.tag, res.checkErr)
			rep.Correct = false
		}
		res.print(os.Stdout, *name, sc.tag)
		rep.Attempted += res.total.attempted
		rep.Failed += res.total.failed
		setup += median(res.setups)
		m := res.endToEnd()
		if *traceFlag == 1 {
			m = res.layerMetrics(sc)
		}
		for k, v := range m {
			rep.Metrics[k+"."+sc.tag] = v
		}
	}
	if *traceFlag == 0 {
		// The sum over the schemes of each scheme's median set-up, so a
		// change to any one scheme's set-up moves the figure.
		rep.Metrics["setup_s"] = metric{setup, "s"}
	}
	if rep.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no transaction was attempted")
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// median returns the median of xs (0 for none), interpolating between the
// middle two of an even count; xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
