// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four user-facing workloads from a seed, measures it for a fixed
// wall-clock window, checks every output, and prints its metrics: the
// end-to-end metrics with -trace 0, the per-layer split with -trace 1.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Every layer is measured from outside, by timing the benchmark's own
// calls into the public functions of graph, beep, core, stab, ckpt,
// service and dist. Run it from the repository root through run.sh,
// which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload cold-start --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// workDir is a scratch directory inside the checkout for checkpoint
	// chains, the daemon's data directory and the span dump.
	workDir string
	// short shrinks every input so the benchmark's own tests run each
	// workload in seconds.
	short bool
	// plant injects a known defect into the output check ("mis" flips
	// one MIS bit, "chain" flips one byte of a checkpoint chain link),
	// so tests can show the checks catch it.
	plant string
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"cold-start":     runColdStart,
	"steady-recover": runSteadyRecover,
	"beepd-jobs":     runBeepdJobs,
	"dist-run":       runDistRun,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "cold-start | steady-recover | beepd-jobs | dist-run")
	seed := fs.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for checkpoints, daemon data and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workDir:  *workDir,
	}
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	return report(stdout, cfg, res)
}

// execute runs one workload in a fresh scratch directory and returns its
// result. The directory is removed afterwards; the span dump of a traced
// run is moved next to it first.
func execute(cfg config) (*result, error) {
	root := cfg.workDir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	b := newBench(cfg)
	defer b.heap.stop()
	if err := workloads[cfg.workload](b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	b.finish()
	if b.tr != nil {
		path := filepath.Join(root, fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.workload, cfg.seed))
		if err := b.tr.dump(path); err != nil {
			return nil, err
		}
		b.res.notes = append(b.res.notes, "spans written to "+path)
	}
	return b.res, nil
}

// report prints the human-readable result, then the JSON line. Trace 0
// prints the end-to-end metrics, trace 1 the per-layer ones.
func report(w io.Writer, cfg config, res *result) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	prov, err := json.Marshal(provenance(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, n := range res.notes {
		fmt.Fprintln(w, "note", n)
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	for name := range res.metrics {
		if !isDeclared(name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	out := make(map[string]jsonMetric, len(declared))
	for _, m := range declared {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "metric %s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	frac := float64(res.failed) / float64(res.attempted)
	fmt.Fprintf(w, "fail_frac %s (failed %d of %d attempted)\n", strconv.FormatFloat(frac, 'g', -1, 64), res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Fprintln(w, "failure", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
