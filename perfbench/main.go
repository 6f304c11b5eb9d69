// Command perfbench is the repository's wall-clock benchmark. It serves the
// middle tier in-process on a loopback port and drives it through the path a
// client takes — mtier.Client, the wire protocol, mtier.Server, mdq.Compile,
// core.Engine — with closed-loop sessions, then checks every answer against
// an independent backend oracle.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload rollup-warm -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs one
// traced session with decorated layers and reports per-layer metrics, then
// replays the same queries untraced to measure the tracing overhead and to
// check that tracing did not change what the engine did. The last line of
// standard output is one JSON object; a fuller record, with provenance, is
// written under -out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result file: the reported metrics, the extra numbers
// that are printed but not gated, and where they came from.
type record struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      int        `json:"trace"`
	Provenance provenance `json:"provenance"`
	Sizes      sizes      `json:"sizes"`
	Counts     counts     `json:"counts"`
	Metrics    []metric   `json:"metrics"`
	Extra      []metric   `json:"extra"`
	// SliceQPS is the untraced window's throughput per one-second slice.
	SliceQPS []float64 `json:"slice_qps,omitempty"`
	Notes    []string  `json:"notes,omitempty"`
	Correct  bool      `json:"correct"`
}

type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Modified is the build's vcs.modified: the tree had uncommitted changes.
	Modified string `json:"vcs_modified,omitempty"`
}

type sizes struct {
	Scale           string `json:"scale"`
	Rows            int    `json:"rows"`
	BaseBytes       int64  `json:"base_bytes"`
	HotBytes        int64  `json:"hot_bytes"`
	ColdBytes       int64  `json:"cold_bytes"`
	WorkingSetBytes int64  `json:"working_set_bytes"`
	Preloaded       string `json:"preloaded,omitempty"`
}

type counts struct {
	Sessions      int `json:"sessions"`
	WarmupQueries int `json:"warmup_queries"`
	WindowQueries int `json:"measured_queries"`
	Attempted     int `json:"attempted"`
	Failed        int `json:"failed"`
	Wrong         int `json:"wrong"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (rollup-warm | drill-churn | dashboard-repeat)")
		seed    = flag.Int64("seed", 1, "seed for the data and the query streams")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for result records and span files")
	)
	flag.Parse()
	w, err := lookupSpec(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("-seconds must be ≥ 1 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	rec := &record{Workload: w.name, Seed: *seed, Trace: *trace, Provenance: collectProvenance()}
	window := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = measure(w, *seed, window, rec)
	} else {
		err = traced(w, *seed, window, *out, rec)
	}
	if err != nil {
		fail(err)
	}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSON(path, rec); err != nil {
		fail(err)
	}
	for _, m := range append(append([]metric(nil), rec.Metrics...), rec.Extra...) {
		fmt.Printf("%-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range rec.Notes {
		fmt.Println("note:", n)
	}
	res := result{
		Correct:   rec.Correct,
		Attempted: rec.Counts.Attempted,
		Failed:    rec.Counts.Failed + rec.Counts.Wrong,
		Metrics:   make(map[string]metricValue, len(rec.Metrics)),
	}
	for _, m := range rec.Metrics {
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: run is not correct; see the notes above")
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// collectProvenance records the machine and the code a result came from.
// A checkout without version control has no commit.
func collectProvenance() provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}
