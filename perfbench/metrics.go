package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

type metricDecl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// -trace 0. Every workload defines each of them (see README.md for what
// an "op" and a "round" are on each workload).
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"rounds_per_s", "1/s"},
	{"round_us_p50", "us"},
}

// perLayer are the per-layer metrics of the traced run, printed with
// -trace 1. A layer a workload does not call reads 0.
var perLayer = func() []metricDecl {
	d := []metricDecl{
		{"graph.build_s", "s"}, {"graph.edges", "count"},
		{"beep.init_s", "s"}, {"beep.step_us_p50", "us"}, {"beep.step_us_p99", "us"},
		{"beep.step_busy_s", "s"}, {"beep.rounds", "count"}, {"beep.active_frac_mean", "frac"},
		{"beep.frontier_words_mean", "count"}, {"beep.elided_rounds", "count"},
		{"core.probe_us_p50", "us"}, {"core.probe_us_p99", "us"}, {"core.probe_busy_s", "s"},
		{"core.probe_share", "frac"}, {"core.verify_ms", "ms"},
		{"stab.fault_us_p50", "us"}, {"stab.recovery_rounds_p50", "count"}, {"stab.recovery_rounds_p90", "count"},
		{"stab.recover_ms_p90", "ms"}, {"stab.round_us_p99", "us"},
		{"ckpt.capture_ms_p50", "ms"}, {"ckpt.persist_ms_p50", "ms"}, {"ckpt.delta_ms_p50", "ms"},
		{"ckpt.delta_ms_p99", "ms"}, {"ckpt.delta_bytes_p50", "bytes"}, {"ckpt.base_ms", "ms"},
		{"ckpt.base_bytes", "bytes"}, {"ckpt.bases", "count"}, {"ckpt.deltas", "count"},
		{"ckpt.load_ms", "ms"}, {"ckpt.restore_ms", "ms"}, {"ckpt.resume_ms", "ms"},
		{"service.job_ms_p90", "ms"}, {"service.submit_ms_p50", "ms"}, {"service.queue_wait_ms_p50", "ms"}, {"service.queue_wait_ms_p90", "ms"},
		{"service.run_ms_p50", "ms"}, {"service.first_event_ms_p50", "ms"}, {"service.events_per_job", "count"},
		{"service.ckpt_ms_p50", "ms"}, {"service.ckpt_bytes_per_job", "bytes"}, {"service.rejected", "count"},
		{"service.stream_miss", "count"},
		{"dist.first_round_ms", "ms"}, {"dist.round_ms_p50", "ms"}, {"dist.round_ms_p99", "ms"},
		{"dist.rounds", "count"}, {"dist.wire_bytes", "bytes"}, {"dist.wire_bytes_per_round", "bytes"},
		{"dist.respawns", "count"},
		{"runtime.heap_peak_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms_total", "ms"}, {"runtime.alloc_bytes_per_round", "bytes"},
		{"trace.op_ms_p50_traced", "ms"}, {"trace.op_ms_p50_untraced", "ms"}, {"trace.overhead_pct", "%"},
	}
	for _, l := range layers {
		d = append(d, metricDecl{l + ".self_s", "s"}, metricDecl{l + ".share", "frac"})
	}
	return d
}()

func isDeclared(name string) bool {
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return true
			}
		}
	}
	return false
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	notes             []string
}

// bench is the state shared by one workload run.
type bench struct {
	cfg  config
	tr   *tracer
	heap *heapSampler // traced runs only

	mu  sync.Mutex // guards res against concurrent clients
	res *result

	window runtimeSnap // runtime counters at the start of the measured window
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, res: &result{metrics: map[string]float64{}}}
	if cfg.trace {
		b.tr = newTracer()
		b.heap = startHeapSampler()
	}
	return b
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.res.metrics[name] = v
	b.mu.Unlock()
}

// check records one attempted operation and, when err is non-nil, its
// failure.
func (b *bench) check(what string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.res.attempted++
	if err != nil {
		b.res.failed++
		if len(b.res.failures) < 20 {
			b.res.failures = append(b.res.failures, what+": "+err.Error())
		}
	}
}

func (b *bench) note(s string) {
	b.mu.Lock()
	b.res.notes = append(b.res.notes, s)
	b.mu.Unlock()
}

// startWindow marks the start of the measured window for the runtime
// counters and the heap samples, and returns its deadline.
func (b *bench) startWindow() time.Time {
	if b.tr != nil {
		b.window = readRuntime()
		b.heap.mark()
	}
	return time.Now().Add(b.cfg.seconds)
}

// endWindow closes the measured window: runtime counters and heap
// samples after it (the output checks) are not counted.
func (b *bench) endWindow(rounds int) {
	if b.tr == nil {
		return
	}
	now := readRuntime()
	b.set("runtime.heap_peak_mb", b.heap.peak()/(1<<20))
	b.set("runtime.gc_cycles", float64(now.gcCycles-b.window.gcCycles))
	b.set("runtime.gc_pause_ms_total", float64(now.pauseNs-b.window.pauseNs)/1e6)
	if rounds > 0 {
		b.set("runtime.alloc_bytes_per_round", float64(now.allocBytes-b.window.allocBytes)/float64(rounds))
	}
}

// finish fills the traced layer split. Per-layer metrics a workload
// never set read 0: it does not call that layer.
func (b *bench) finish() {
	if b.tr == nil {
		return
	}
	self, total := b.tr.selfTimes()
	for _, l := range layers {
		b.set(l+".self_s", self[l].Seconds())
		if total > 0 {
			b.set(l+".share", float64(self[l])/float64(total))
		}
	}
	for _, m := range perLayer {
		if _, ok := b.res.metrics[m.name]; !ok {
			b.res.metrics[m.name] = 0
		}
	}
}

// alternate returns the tracer for even operations and nil for odd
// ones: a traced run interleaves traced and untraced operations, and
// the untraced ones are its overhead baseline.
func (b *bench) alternate(op int64) *tracer {
	if op%2 != 0 {
		return nil
	}
	return b.tr
}

// setOverhead reports the traced operations' median latency against the
// untraced ones measured alongside them in the same run.
func (b *bench) setOverhead(traced, untraced []float64) {
	t, u := quantile(traced, 0.5), quantile(untraced, 0.5)
	b.set("trace.op_ms_p50_traced", t)
	b.set("trace.op_ms_p50_untraced", u)
	if u > 0 {
		b.set("trace.overhead_pct", (t/u-1)*100)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// derive mixes a label and indices into the workload seed (splitmix64),
// so every input is a pure function of -seed.
func derive(seed uint64, label string, idx ...uint64) uint64 {
	x := seed
	for i := 0; i < len(label); i++ {
		x = mix(x ^ uint64(label[i]))
	}
	for _, v := range idx {
		x = mix(x ^ v)
	}
	return mix(x)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// heapSampler polls the heap in use every 5 ms. runtime.heap_peak_mb
// is the 99th percentile of the samples taken in the measured window:
// the level the heap reaches before each GC, without the single-sample
// extremes that GC timing alone decides. It is a per-layer metric, not
// an end-to-end one: on steady-recover it is bimodal between runs
// (whether a GC lands while a base checkpoint and the chain tip are both
// live), wider than any bound.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	samples []float64
	from    int // first sample of the measured window
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.samples = append(h.samples, float64(s[0].Value.Uint64()))
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *heapSampler) mark() {
	h.mu.Lock()
	h.from = len(h.samples)
	h.mu.Unlock()
}

// peak returns the 99th percentile of the window's samples in bytes.
func (h *heapSampler) peak() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(append([]float64(nil), h.samples[h.from:]...), 0.99)
}

// stop ends the sampler and waits for it.
func (h *heapSampler) stop() {
	if h == nil {
		return // untraced run
	}
	close(h.stopCh)
	<-h.done
}

type runtimeSnap struct{ gcCycles, pauseNs, allocBytes uint64 }

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnap{gcCycles: uint64(m.NumGC), pauseNs: m.PauseTotalNs, allocBytes: m.TotalAlloc}
}

// provenance records the machine and code a result was measured on.
func provenance(cfg config) map[string]any {
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and go.mod files under root, so a
// result names the code it measured even where the checkout carries no
// version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
