// Command bccperf is the repository benchmark. It runs one of three
// workloads in-process through the public API — fastbcc.Store, and
// bccdhttp.NewHandler served on loopback TCP — checks every answer, and
// prints each metric by name with its unit. Every workload runs the same
// mix (back-to-back loads, then durable serving under mutation churn) on
// its own graph class and P count, so every run reports every metric.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run measures untraced for half its time and traced for the other half,
// and reports the per-layer metrics. See README.md for the workloads,
// the metrics and the layer map.
//
// Usage (from the repository root):
//
//	bash bccperf/run.sh --workload social --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	fastbcc "repro"
	"repro/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bccperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "social | grid | social-1p")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bccperf: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runDir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)))
	if err == nil {
		err = os.RemoveAll(runDir)
	}
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bccperf: %v\n", err)
		return 1
	}
	cfg := &config{
		seed:   *seed,
		timed:  time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		size:   fullSize,
		dir:    runDir,
		procs:  w.procs,
	}
	res, err := runWorkload(w, cfg)
	// The data dirs hold a snapshot per set-up; only the spans are kept.
	if rerr := os.RemoveAll(filepath.Join(runDir, "data")); err == nil {
		err = rerr
	}
	if err == nil {
		err = res.complete()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bccperf: %s: %v\n", *name, err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bccperf: %v\n", err)
		return 1
	}
	return 0
}

// e2eMetrics are the metrics of an untraced run and layerMetrics those of
// a traced run. Every workload reports all of them.
var (
	e2eMetrics = []string{
		"setup_s", "build_ms_p50", "batch_us_p90", "scalar_us_p90", "fresh_ms_p50", "fresh_ms_p90", "mem_peak_mb",
	}
	layerMetrics = []string{
		"graph.csr_ms", "core.first_cc_ms", "core.rooting_ms", "core.tagging_ms", "core.last_cc_ms",
		"core.topology_ms", "bctree.index_ms", "store.publish_ms", "parallel.cpu_util",
		"wire.decode_us", "wire.encode_us", "store.pin_us", "querybatch.exec_us",
		"epoch.retired_max", "store.live_snapshots_max",
		"bccdhttp.batch_us", "bccdhttp.scalar_us", "net.loopback_us",
		"mutate.apply_us", "mutate.flush_ms", "mutate.materialize_ms", "mutate.deltas_per_flush", "mutate.flushes",
		"persist.wal_append_us", "persist.snapshot_save_ms", "persist.recover_ms",
		"runtime.sched_latency_p99_us", "runtime.gc_pause_p99_us", "runtime.gc_cpu_frac",
		"host.steal_pct", "host.calib_ms",
	}
)

// size holds every input size and op count of a run, so the self-test
// can run each workload tiny.
type size struct {
	rmatScale  int // social: RMAT 2^scale vertices, edge factor 8
	gridSide   int // grid: side of the circular sampled grid
	setups     int // set-ups per run; setup_s is their median
	warmLoads  int // loads into the build Store inside each set-up
	warmReqs   int // batch + scalar round trips inside each set-up
	batches    int // distinct 64-query batches in the pool
	scalars    int // distinct scalar queries in the pool
	tick       time.Duration
	persists   int // traced: timed Store.Persist calls
	rebuildGap int // traced: writer ticks between plain Rebuilds
}

var fullSize = size{
	rmatScale: 16, gridSide: 360, setups: 5, warmLoads: 1, warmReqs: 200,
	batches: 64, scalars: 1024, tick: 100 * time.Millisecond, persists: 3, rebuildGap: 10,
}

// config is one run's settings.
type config struct {
	seed   uint64
	timed  time.Duration
	traced bool
	size   size
	dir    string // run directory inside the checkout
	procs  int
	// maxReads, when > 0, stops the reader after that many round trips
	// (the self-test uses it to hit each oracle answer once).
	maxReads int
	// corrupt, when set, edits the oracle after it is built (self-test).
	corrupt func(*oracle)
}

// runWorkload pins the process to the workload's P count, then runs it.
func runWorkload(w workload, cfg *config) (*result, error) {
	prev := runtime.GOMAXPROCS(cfg.procs)
	prevProcs := parallel.SetProcs(cfg.procs)
	defer func() {
		parallel.SetProcs(prevProcs)
		runtime.GOMAXPROCS(prev)
	}()
	return runMix(w, cfg)
}

// generate runs an input generator at a fixed parallelism: the
// generators' output depends on their block split, and social and
// social-1p must get the same graph for a seed.
func generate(g func() *fastbcc.Graph) *fastbcc.Graph {
	defer parallel.SetProcs(parallel.SetProcs(2))
	return g()
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts one goroutine's operations.
type tally struct {
	attempted, failed, wrong int64
	errs                     []string
}

// fail counts a failed operation and keeps the first few messages.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// merge adds o's counts and messages to t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.errs {
		if len(t.errs) < 10 {
			t.errs = append(t.errs, e)
		}
	}
}

// wrongAnswer counts an answer that differs from the oracle: a failure.
func (t *tally) wrongAnswer(format string, args ...any) {
	t.wrong++
	t.fail("wrong answer: "+format, args...)
}

// result is what a run reports. Its tally's wrong counts answers that
// differ from the oracle (each is also a failure); setupOK is false when
// a set-up check failed.
type result struct {
	tally
	setupOK bool
	e2e     map[string]metric
	layer   map[string]metric
	traced  bool
	notes   []string // report lines printed before the JSON
}

func newResult(traced bool) *result {
	return &result{setupOK: true, traced: traced, e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// complete checks that the run measured exactly the metrics of its mode,
// each a finite number.
func (r *result) complete() error {
	want, got := e2eMetrics, r.e2e
	if r.traced {
		want, got = layerMetrics, r.layer
	}
	if len(got) != len(want) {
		return fmt.Errorf("measured %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		m, ok := got[n]
		if !ok {
			return fmt.Errorf("metric %s not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no samples", n)
		}
	}
	return nil
}

// print writes the report lines, then the JSON object as the last line.
func (r *result) print(w io.Writer) error {
	for _, e := range r.errs {
		r.note("fail: %s", e)
	}
	r.note("ops attempted=%d failed=%d wrong=%d failed_share=%.6f",
		r.attempted, r.failed, r.wrong, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, n := range r.notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	ms := r.e2e
	if r.traced {
		ms = r.layer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "metric %-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit); err != nil {
			return err
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.setupOK && r.wrong == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
