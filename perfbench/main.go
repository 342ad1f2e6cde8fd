// Command perfbench is the repository benchmark: three workloads that drive
// the real collection and analysis pipeline end to end, check its outputs
// against ground truth taken from the program that ran, and print one JSON
// result line.
//
//	perfbench --workload live-echo|ingest-replay|offline-figure5 \
//	          --seed N --seconds S --trace 0|1 --causectl PATH --work DIR
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run is split in two halves, the first
// untraced and the second traced; the result carries the per-layer metrics
// of the traced half plus the tracing overhead (traced minus untraced).
// See README.md for what each workload and metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts is the parsed command line.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	causectl string
	work     string // scratch directory for stores and traces
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits lists the end-to-end metrics every workload reports (README.md
// maps each to the workload's own quantity).
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"visible_p50_ms":   "ms",
	"throughput_per_s": "1/s",
	"peak_rss_mib":     "MiB",
}

// layerUnits lists the per-layer metrics of a traced run. A layer a
// workload does not exercise reports 0.
var layerUnits = map[string]string{
	"loadgen.late_p99_ms":              "ms",
	"loadgen.achieved_rate":            "1/s",
	"loadgen.wait_us":                  "us",
	"loadgen.self_us_per_op":           "us",
	"orb.call_busy_p50_us":             "us",
	"orb.self_us_per_op":               "us",
	"probe.records_per_call":           "count",
	"probe.ring_dropped":               "count",
	"telemetry.records_per_frame":      "count",
	"telemetry.transit_p50_ms":         "ms",
	"telemetry.shipper_dropped":        "count",
	"telemetry.bad_frames":             "count",
	"telemetry.shipper_buffered_max":   "count",
	"telemetry.ship_wait_us_per_op":    "us",
	"telemetry.self_us_per_op":         "us",
	"streamrecon.append_ns":            "ns",
	"streamrecon.tick_busy_frac":       "frac",
	"streamrecon.complete_lag_p50_ms":  "ms",
	"streamrecon.open_chains_max":      "count",
	"streamrecon.ledger_appended":      "count",
	"streamrecon.ledger_persisted":     "count",
	"streamrecon.ledger_discarded":     "count",
	"streamrecon.ledger_shed":          "count",
	"streamrecon.heap_bytes_per_chain": "bytes",
	"streamrecon.self_us_per_op":       "us",
	"tracestore.insert_ns":             "ns",
	"tracestore.insert_busy_frac":      "frac",
	"tracestore.bytes_written":         "bytes",
	"tracestore.open_s":                "s",
	"tracestore.events_us":             "us",
	"tracestore.self_us_per_op":        "us",
	"analysis.reconstruct_s":           "s",
	"analysis.latency_s":               "s",
	"analysis.cpu_s":                   "s",
	"analysis.ccsg_s":                  "s",
	"analysis.iface_stats_s":           "s",
	"analysis.self_us_per_op":          "us",
	"runtime.gc_cpu_frac":              "frac",
	"runtime.alloc_bytes_per_op":       "bytes",
	"tracing.overhead_ms":              "ms",
	"tracing.overhead_frac":            "frac",
}

// result is what one workload run produced.
type result struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	digest    string // input digest: record count plus hash
	notes     []note // the workload's own named figures, printed but not gated
	// peakRSSMiB is the largest resident set seen during the measured
	// phase; childRSSMiB that of any waited-for child (causectl queries).
	peakRSSMiB, childRSSMiB float64
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// note is a figure printed for readers beside the gated metrics.
type note struct {
	name, unit string
	value      float64
}

func (r *result) note(name, unit string, v float64) {
	r.notes = append(r.notes, note{name, unit, v})
}

// wrong marks the run incorrect: the program's output disagreed with ground
// truth.
func (r *result) wrong(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "live-echo | ingest-replay | offline-figure5")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.causectl, "causectl", "", "path to the causectl binary")
	flag.StringVar(&o.work, "work", "", "scratch directory (stores, traces)")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || o.work == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0|1 and --work")
		os.Exit(2)
	}
	run, ok := map[string]func(opts) (*result, error){
		"live-echo":       runLive,
		"ingest-replay":   runIngest,
		"offline-figure5": runOffline,
	}[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.e2e["peak_rss_mib"] = max(res.peakRSSMiB, res.childRSSMiB)
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the host fingerprint, the input digest, every metric in
// human-readable form, and finally the JSON result line.
func report(w *os.File, o opts, res *result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(bw, "input workload=%s seed=%d %s\n", o.workload, o.seed, res.digest)
	for _, p := range res.problems {
		fmt.Fprintf(bw, "check FAILED: %s\n", p)
	}
	units, values := e2eUnits, res.e2e
	if o.trace {
		units, values = layerUnits, res.layer
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for _, n := range names {
		v, ok := values[n]
		if !ok && !o.trace {
			return fmt.Errorf("workload %s did not measure %s", o.workload, n)
		}
		out.Metrics[n] = metric{Value: v, Unit: units[n]}
		fmt.Fprintf(bw, "metric %-34s %14.6g %s\n", n, v, units[n])
	}
	if res.attempted > 0 {
		res.note("error_frac", "frac", float64(res.failed)/float64(res.attempted))
	}
	for _, n := range res.notes {
		fmt.Fprintf(bw, "figure %-34s %14.6g %s\n", n.name, n.value, n.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(b)
	bw.WriteString("\n")
	return bw.Flush()
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// scratchDir makes a fresh directory under the work directory.
func scratchDir(o opts, name string) (string, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%s", o.workload, os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
