// Command perfbench is the repository's benchmark: four workloads that
// each run in their own process, check their outputs and print the
// end-to-end metrics of BENCHMARK.json, or, with --trace 1, the
// per-layer metrics measured from spans around the benchmark's calls
// into each layer. README.md beside this file describes the workloads
// and metrics. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload mesh_churn --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"figures_all": runFigures,
	"mesh_churn":  runChurn,
	"daemon_mix":  runDaemon,
	"smc_verify":  runSMC,
}

// layerMetrics names the per-layer metrics each workload's traced run
// measures. A traced run prints every per-layer metric of
// BENCHMARK.json; those of layers its workload does not exercise read 0.
var layerMetrics = map[string][]string{
	"figures_all": append(figureLayerNames(),
		"sim.busy_frac", "audio.setup_s", "audio.setup_calls", "audio.psycho_s",
		"audio.mdct_s", "audio.encode_s", "audio.frames", "core.step_self_s",
		"core.rounds", "core.tx", "trace_overhead_frac"),
	"mesh_churn": {"core.step_p50_ms", "core.step_p95_ms", "core.inject_s", "core.rounds",
		"core.tx", "core.retired", "core.slots", "core.table_bytes_per_tile",
		"go.alloc_bytes_per_round", "go.gc_cpu_frac", "trace_overhead_frac"},
	"daemon_mix": {"http.submit_ms_p50", "http.submit_ms_p99", "http.first_round_ms_p50",
		"http.stream_ms_p99", "service.simulations", "service.deduped", "cache.hit_ratio",
		"cache.get_us", "cache.put_us", "cache.entry_bytes", "metrics.hooks_us_per_round",
		"metrics.line_us", "go.alloc_bytes_per_round", "go.gc_cpu_frac",
		"go.heap_inuse_mb_end", "gen.late_ms_p99", "trace_overhead_frac"},
	"smc_verify": {"smc.replicas_per_verdict", "smc.replica_us", "smc.split_trajectories",
		"snapshot.encode_us", "snapshot.decode_us", "snapshot.bytes", "trace_overhead_frac"},
}

// tracedPairs is how many untraced and traced batches a traced run
// alternates to measure its overhead, where one batch is cheap.
const tracedPairs = 4

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// bench is one workload run: its arguments and everything it measures.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	root    string // checkout root
	bin     string // directory holding the built binaries
	tmp     string // this run's scratch directory, removed at exit
	workers int    // replica workers, shards, server workers and client connections
	tr      *tracer

	e2e      map[string]float64 // end-to-end metrics by BENCHMARK.json name
	layer    map[string]float64 // per-layer metrics (traced run)
	counters map[string]int64   // exact work counters, identical across runs of a seed
	setups   []float64          // every set-up time of the run, in seconds
	report   []string           // named metrics as the report prints them
	problems []string           // failed correctness checks

	attempted, failed int64
}

// check records a failed correctness check unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a named metric to the printed report.
func (b *bench) note(name string, v float64, unit string) {
	b.report = append(b.report, fmt.Sprintf("%-28s %14.6g %s", name, v, unit))
}

// notePct adds a percentile metric with its level and sample count.
func (b *bench) notePct(name string, d dist, q float64, unit string) {
	b.report = append(b.report, fmt.Sprintf("%-28s %14.6g %s (%s of n=%d, %d beyond)",
		name, d.pct(q), unit, pctName(q), d.n(), d.beyond(q)))
}

// latency reports a run's request timings, given in equal windows of
// consecutive requests: p50_ms is the median of all of them, tail_ms
// the median over windows of each window's tail. A burst of host noise
// then moves one window's tail, not the run's.
func (b *bench) latency(label string, windows [][]time.Duration) {
	var all []time.Duration
	var tails []float64
	for _, w := range windows {
		all = append(all, w...)
		_, v := durDist(w, time.Millisecond).tail()
		tails = append(tails, v)
	}
	// Equal windows share one tail level.
	d := durDist(windows[0], time.Millisecond)
	q, _ := d.tail()
	ad := durDist(all, time.Millisecond)
	b.e2e["p50_ms"] = ad.median()
	b.e2e["tail_ms"] = median(tails)
	b.notePct(label+"_p50_ms", ad, 50, "ms")
	name := label + "_" + pctName(q) + "_ms"
	if q == 50 {
		name = label + "_tail_ms"
	}
	b.report = append(b.report, fmt.Sprintf("%-28s %14.6g ms (median over %d windows of the window's %s of n=%d, %d beyond; quartiles %.3g)",
		name, median(tails), len(windows), pctName(q), d.n(), d.beyond(q), quartiles(tails)))
}

// peakRSS reports peak_rss_mb as the median over a run's windows of
// the peak resident set within each window.
func (b *bench) peakRSS(peaks []float64, what string) {
	b.e2e["peak_rss_mb"] = median(peaks)
	b.note("peak_rss_mb", median(peaks), fmt.Sprintf("MB (median over %d windows of %s; max %.1f)", len(peaks), what, slices.Max(peaks)))
}

// resetPeakRSS restarts this process's VmHWM at its current resident
// set, so that the next peakRSSMB reads the peak of what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// split cuts xs into n equal consecutive windows, dropping the
// remainder at the end.
func split[T any](xs []T, n int) [][]T {
	size := len(xs) / n
	out := make([][]T, n)
	for i := range out {
		out[i] = xs[i*size : (i+1)*size]
	}
	return out
}

// setup runs fn k times and records the time of each call; setup_s is
// the median of all set-up times of the run. fn builds what the timed
// operations need. With keep, fn's last call keeps what it built and
// returns no release function; every other call returns one.
func (b *bench) setup(k int, keep bool, fn func(keep bool) (release func(), err error)) error {
	for i := 0; i < k; i++ {
		runtime.GC()
		t0 := time.Now()
		release, err := fn(keep && i == k-1)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		if release != nil {
			release()
		}
	}
	return nil
}

// peakRSSMB returns this process's VmHWM in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// rtStats is a runtime/metrics sample of GC CPU time, total CPU time
// and cumulative heap allocation.
type rtStats struct{ gcCPU, cpu, allocs float64 }

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtStats{gcCPU: val(s[0].Value), cpu: val(s[1].Value), allocs: val(s[2].Value)}
}

// gcFrac is the share of CPU time spent in the garbage collector
// between two samples.
func gcFrac(a, b rtStats) float64 {
	if b.cpu <= a.cpu {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.cpu - a.cpu)
}

// heapInuseMB returns the post-GC heap in use.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// ledger compares this run's exact counters with those an earlier run
// of the same workload, seed and duration recorded with the same
// binaries, and records them when there is none. Counters that differ
// fail the run: a speed-only change leaves every simulated count
// unchanged.
func (b *bench) ledger(dir string) error {
	h := sha256.New()
	for _, name := range []string{"perfbench", "figures"} {
		f, err := os.Open(filepath.Join(b.bin, name))
		if err != nil {
			return err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	type entry struct {
		Binaries string           `json:"binaries"`
		Counters map[string]int64 `json:"counters"`
	}
	cur := entry{Binaries: fmt.Sprintf("%x", h.Sum(nil)), Counters: b.counters}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%gs.json", b.name, b.seed, b.seconds))
	if raw, err := os.ReadFile(path); err == nil {
		var prev entry
		if json.Unmarshal(raw, &prev) == nil && prev.Binaries == cur.Binaries {
			for k, v := range cur.Counters {
				b.check(prev.Counters[k] == v, "counter %s = %d, an earlier run of this seed had %d", k, v, prev.Counters[k])
			}
			for k := range prev.Counters {
				_, ok := cur.Counters[k]
				b.check(ok, "counter %s missing, an earlier run of this seed had it", k)
			}
			return nil
		}
	}
	raw, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final JSON line: every end-to-end metric, or in
// a traced run every per-layer one.
func (b *bench) result(spec benchSpec, traced bool) (resultOut, error) {
	out := resultOut{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricOut{},
	}
	if !traced {
		for _, m := range spec.EndToEnd {
			v, ok := b.e2e[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return out, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			out.Metrics[m.Name] = metricOut{v, m.Unit}
		}
		return out, nil
	}
	owned := map[string]bool{}
	for _, n := range layerMetrics[b.name] {
		owned[n] = true
	}
	for _, m := range spec.PerLayer {
		v, ok := b.layer[m.Name]
		if owned[m.Name] && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
			return out, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricOut{v, m.Unit}
	}
	return out, nil
}

func main() {
	log := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		os.Exit(1)
	}
	workload := flag.String("workload", "", "workload to run: figures_all, mesh_churn, daemon_mix or smc_verify")
	seed := flag.Uint64("seed", 2003, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	out := flag.String("out", ".bench_build", "build directory holding bin/, scratch space and the ledger")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		log("usage: --workload NAME --seed N --seconds S --trace 0|1 (workloads: figures_all, mesh_churn, daemon_mix, smc_verify)")
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		log("%v", err)
	}
	if err := os.MkdirAll(filepath.Join(*out, "tmp"), 0o755); err != nil {
		log("%v", err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(*out, "tmp"), *workload+"-")
	if err != nil {
		log("%v", err)
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		name: *workload, seed: *seed, seconds: *seconds,
		root: *root, bin: filepath.Join(*out, "bin"), tmp: tmp,
		workers:  runtime.NumCPU(),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		counters: map[string]int64{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d workers=%d\n", b.name, b.seed, b.seconds, *trace, b.workers)
	err = drive(b)
	if len(b.setups) > 0 {
		b.e2e["setup_s"] = median(b.setups)
		b.report = append([]string{fmt.Sprintf("%-28s %14.6g s (median of %d set-ups; min %.3g, max %.3g)",
			"setup_s", median(b.setups), len(b.setups), slices.Min(b.setups), slices.Max(b.setups))}, b.report...)
	}
	if err == nil {
		err = b.ledger(filepath.Join(*out, "ledger"))
	}
	if err == nil && b.tr != nil {
		b.tr.finish()
		err = b.writeTrace(filepath.Join(*out, "trace"))
	}
	if err != nil {
		os.RemoveAll(tmp)
		log("%s: %v", b.name, err)
	}
	res, err := b.result(spec, *trace == 1)
	if err != nil {
		os.RemoveAll(tmp)
		log("%s: %v", b.name, err)
	}

	for _, line := range b.report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(b.counters))
	for k := range b.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("counter %-24s %d\n", k, b.counters[k])
	}
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	if err := enc.Encode(res); err != nil {
		log("%v", err)
	}
	fmt.Print(line.String())
	if !res.Correct {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}

// mix derives the k-th sub-seed of seed (SplitMix64 finalizer).
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// writeTrace stores the run's spans beside the ledger.
func (b *bench) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", b.name, b.seed))
	if err := b.tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(b.tr.spans), path)
	return nil
}
