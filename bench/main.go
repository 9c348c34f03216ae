// Command polbench is the repository's benchmark: five workloads, six
// end-to-end metrics, a traced run for the per-layer table, and -compare for
// judging two sets of runs. See README.md in this directory.
//
//	polbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
//	polbench -seed N                                          every workload, untraced then traced
//	polbench -compare a.jsonl b.jsonl                         verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := sutMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "polbench sut:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all five, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of the inputs")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for results.jsonl and traces")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: polbench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "polbench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	a := runArgs{
		seed: *seed, seconds: *seconds, shape: benchFleet, clones: liveClones, setups: setupRepeats,
		buildDir: ".bench_build", outDir: *out,
	}
	type job struct {
		workload string
		traced   bool
	}
	var jobs []job
	if *workload != "" {
		jobs = []job{{*workload, *trace == 1}}
	} else {
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				jobs = append(jobs, job{w.name, traced})
			}
		}
	}
	for _, j := range jobs {
		a.workload, a.traced = j.workload, j.traced
		rec, err := runWorkload(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polbench:", err)
			os.Exit(1)
		}
		if err := appendRecord(a.outDir, rec); err != nil {
			fmt.Fprintln(os.Stderr, "polbench:", err)
			os.Exit(1)
		}
		printRecord(rec)
	}
}

// printRecord prints every metric as "name workload value unit" and, as the
// last line, the result object the driver reads.
func printRecord(rec *runRecord) {
	line := func(kind, name string, v metricValue) {
		extra := ""
		if v.Samples > 0 {
			extra = fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.Note != "" {
			extra += " (" + v.Note + ")"
		}
		fmt.Printf("%s%s %s %.6g %s%s\n", kind, name, rec.Workload, v.Value, v.Unit, extra)
	}
	names := func(m map[string]metricValue) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	fmt.Printf("# %s seed=%d seconds=%g traced=%v reports=%d groups=%d child_gomaxprocs=%d nproc=%d load=%.2f go=%s git=%s dirty=%v cpu=%q\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Reports, rec.Groups, rec.ChildProc,
		rec.Env.NProc, rec.Env.LoadAvg1, rec.Env.GoVersion, rec.Env.GitSHA, rec.Env.GitDirty, rec.Env.CPUModel)
	for _, k := range names(rec.Info) {
		line("info ", k, rec.Info[k])
	}
	for _, k := range names(rec.Metrics) {
		line("", k, rec.Metrics[k])
	}
	fmt.Printf("failed_frac %s %g ratio n=%d\n", rec.Workload, float64(rec.Failed)/float64(max(1, rec.Attempted)), rec.Attempted)
	fmt.Printf("gen_late_p99_us %s %.1f us\n", rec.Workload, rec.LateP99Us)

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{true, max(1, rec.Attempted), rec.Failed, map[string]outMetric{}}
	for k, v := range rec.Metrics {
		res.Metrics[k] = outMetric{v.Value, v.Unit}
	}
	b, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	fmt.Println(string(b))
}
