// Command perfbench is the repository benchmark. One invocation runs one
// workload against real multi-process clusters — one OS process per
// replica, TCP between them, gossip, a write-ahead log on disk — from a
// single driver process, checks every result, and prints its metrics.
//
//	perfbench --workload small-write --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with every
// tracing wrapper off; with --trace 1 it prints the per-layer metrics of a
// traced run and the tracing overhead against an untraced one. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. `perfbench replica ...` is the replica entry the driver
// spawns. See README.md for the workloads, metrics and their meaning.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replica" {
		if err := runReplica(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench replica:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runDriver(os.Args[1:]))
}

// Exit codes of the driver.
const (
	exitError     = 1 // the run could not be made; no result printed
	exitIncorrect = 3 // the checker found a violation; result printed
)

// driverDeadline bounds one invocation, well inside the three minutes a
// run may take.
const driverDeadline = 170 * time.Second

type options struct {
	w       workloadSpec
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	source  string
	bin     string
}

func runDriver(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: small-write, small-read or large-frag")
		seed     = fs.Int64("seed", 1, "seed of the generated operations")
		seconds  = fs.Int("seconds", 30, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		workdir  = fs.String("workdir", ".bench_build/runs", "directory for replica state, dumps and spans")
		source   = fs.String("source", "unknown", "identifier of the source tree, for the host fingerprint")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	w, err := workloadByName(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload small-write|small-read|large-frag, --seconds >= 1, --trace 0|1")
		return exitError
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitError
	}
	o := options{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workdir: *workdir, source: *source, bin: bin}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, driverDeadline)
	defer cancel()

	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-s%d-t%d-%d", w.name, o.seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitError
	}
	defer os.RemoveAll(dir)
	fp := hostFingerprint(o, dir)
	fpJSON, _ := json.Marshal(fp) // plain struct of strings and ints
	fmt.Printf("# host %s\n", fpJSON)

	var res *result
	if o.trace {
		res, err = tracedRun(ctx, o, dir)
	} else {
		res, err = measuredRun(ctx, o, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return exitError
	}
	res.print(os.Stdout)
	if len(res.violations) > 0 {
		return exitIncorrect
	}
	return 0
}

// fingerprint identifies the host and settings a result was measured
// under; results compare only when their fingerprints match.
type fingerprint struct {
	Nproc             int    `json:"nproc"`
	DriverGOMAXPROCS  int    `json:"driverGomaxprocs"`
	ReplicaGOMAXPROCS int    `json:"replicaGomaxprocs"`
	Sessions          int    `json:"sessions"`
	CPUModel          string `json:"cpuModel"`
	GoVersion         string `json:"goVersion"`
	Source            string `json:"source"`
	FlushPolicy       string `json:"flushPolicy"`
	GossipInterval    string `json:"gossipInterval"`
	DataFS            string `json:"dataFs"`
}

func hostFingerprint(o options, dir string) fingerprint {
	return fingerprint{
		Nproc:             runtime.NumCPU(),
		DriverGOMAXPROCS:  runtime.GOMAXPROCS(0),
		ReplicaGOMAXPROCS: replicaGOMAXPROCS,
		Sessions:          sessions(),
		CPUModel:          cpuModel(),
		GoVersion:         runtime.Version(),
		Source:            o.source,
		FlushPolicy:       "WAL group commit, one bufio flush to the page cache per batch, no fsync",
		GossipInterval:    "200ms",
		DataFS:            fsType(dir),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sessions is the driver's concurrency: one in-flight operation per CPU.
func sessions() int { return runtime.NumCPU() }

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample counts and the like, for the human-readable lines
}

type result struct {
	attempted  int
	failed     int
	metrics    []metric
	violations []string
	notes      []string
}

func (r *result) add(name, unit string, value float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, note: note})
}

// print writes the human-readable report, then the result line.
func (r *result) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; the note line says why
			m.note += " (not measurable in this run)"
		}
		fmt.Fprintf(f, "# %-44s %14.4f %-6s %s\n", m.name, v, m.unit, m.note)
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, v := range r.violations {
		fmt.Fprintf(f, "# VIOLATION %s\n", v)
	}
	raw, _ := json.Marshal(out) // maps of finite floats and strings
	fmt.Fprintf(f, "%s\n", raw)
}
