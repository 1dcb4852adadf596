// Command perfbench is the repository's end-to-end benchmark.  It builds
// nothing itself: perfbench/run.sh compiles it and mse-serve from the
// checkout, then runs it from the checkout root:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 30 --trace 0
//
// A run sets up the serving fleet several times (wrapper induction for the
// 119-engine testbed, wrapper files, mse-serve start-up) and computes every
// page's reference response in-process.  Then, in rounds, it drives
// mse-serve over loopback with an open loop of seeded Poisson arrivals and
// a closed loop measuring capacity, checking every response byte for byte,
// and induces wrappers for freshly synthesized engines.  It ends by reading
// the server's validity guards.  With --trace 1 the builds are replaced by
// traced in-process replays that take the serve fill path and the wrapper
// build apart layer by layer.  Every figure is printed; the last line of
// standard output is one JSON object, {"correct", "attempted", "failed",
// "metrics"}, whose metrics are the ones BENCHMARK.json, read from the
// checkout root, lists for the mode.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contract is the part of BENCHMARK.json the run checks itself against:
// a run reports exactly the end_to_end metrics, or with --trace 1 exactly
// the per_layer metrics, under the units listed there.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// check reports how the metrics differ from the list: a listed metric not
// measured, one measured under another unit, or one not listed.
func check(list []contractMetric, got map[string]metric) error {
	var errs []error
	listed := map[string]bool{}
	for _, m := range list {
		listed[m.Name] = true
		switch v, ok := got[m.Name]; {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", m.Name))
		case v.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			errs = append(errs, fmt.Errorf("metric %s is not in BENCHMARK.json", name))
		}
	}
	return errors.Join(errs...)
}

// bench is one run's configuration and output.
type bench struct {
	// list is what BENCHMARK.json lists for this mode: the end_to_end
	// metrics, or with --trace 1 the per_layer ones.
	list     []contractMetric
	workload string
	w        workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	out      string
	tb       *testbed
	stdout   io.Writer
	stderr   io.Writer
	start    time.Time

	res     result
	invalid []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced replays and reports per-layer metrics")
	serveBin := fs.String("serve-bin", filepath.Join(".bench_build", "bin", "mse-serve"), "mse-serve binary")
	out := fs.String("out", ".bench_build", "directory for run files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seed >= 0, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the checkout root:", err)
		return 2
	}
	if _, err := os.Stat(*serveBin); err != nil {
		fmt.Fprintln(stderr, "perfbench: mse-serve binary:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	list := c.EndToEnd
	if *trace == 1 {
		list = c.PerLayer
	}
	b := &bench{list: list, workload: *workload, w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serveBin: *serveBin, out: *out, stdout: stdout, stderr: stderr, start: time.Now(),
		res: result{Metrics: map[string]metric{}}}
	if err := b.run(ctx); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := check(list, b.res.Metrics); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, why := range b.invalid {
		fmt.Fprintln(stdout, "INVALID:", why)
	}
	b.res.Correct = b.res.Failed == 0 && len(b.invalid) == 0
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !b.res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (b *bench) linef(format string, args ...any) {
	fmt.Fprintf(b.stdout, format+"\n", args...)
}

// stage notes on standard error how far the run has got.
func (b *bench) stage(what string) {
	fmt.Fprintf(b.stderr, "perfbench: %6.2fs %s\n", time.Since(b.start).Seconds(), what)
}

// set prints a metric with its unit and sample count, and records it in
// the result when BENCHMARK.json lists it; the others are printed only.
func (b *bench) set(name string, v float64, unit string, n int) {
	note := " (printed, not gated)"
	for _, m := range b.list {
		if m.Name == name {
			b.res.Metrics[name] = metric{Value: v, Unit: unit}
			note = ""
		}
	}
	if n > 0 {
		b.linef("%-32s %14.4f %-8s n=%d%s", name, v, unit, n, note)
	} else {
		b.linef("%-32s %14.4f %s%s", name, v, unit, note)
	}
}

func (b *bench) run(ctx context.Context) error {
	runDir := filepath.Join(b.out, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	tb := newTestbed()
	b.tb = tb
	st := newStream(tb, b.w, b.seed, b.seconds)
	if err := st.materialize(tb); err != nil {
		return err
	}
	b.linef("workload %s seed %d: request stream digest %s (warm-up %d pages, open loop %d requests / %d pages at %d/s, closed loop %d requests / %d pages, %d distinct pages; %d rounds)",
		b.workload, b.seed, st.digest(), items(st.warm), len(st.open), items(st.open), ratePerS, len(st.closed), items(st.closed), len(st.pages), rounds)
	b.stage("inputs drawn")

	// Set-up, several times; the last server stays up for the load phases.
	var srv *server
	defer func() { srv.stop() }()
	var wrappers [][]byte
	var setups []float64
	for r := 0; r < setupReps; r++ {
		srv.stop()
		var d time.Duration
		var err error
		srv, wrappers, d, err = setupServer(ctx, tb, b.serveBin, runDir, b.w.cacheBytes)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.stage("set-up done")
	if err := computeOracle(ctx, tb, wrappers, st.pages); err != nil {
		return err
	}
	b.stage("reference bodies computed")

	// The warm-up, checked like any load but not timed, then the measured
	// rounds.  The load generator runs with its garbage collector off so
	// that its collections do not take CPU from the server; wrapper builds
	// run with the collector on, as in mse-build.
	warm, open, closed := &phase{}, &phase{}, &phase{}
	if err := b.segment(ctx, srv, st, warm, st.warm, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	hostTotal0, hostSteal0, err := hostCPU()
	if err != nil {
		return err
	}
	var bo buildOutcome
	builds := 0
	buildDigest := sha256.New()
	for r := 0; r < rounds; r++ {
		ro, rdue, rc := st.round(r, openDur(b.seconds))
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		err := b.segment(ctx, srv, st, open, ro, rdue)
		if err == nil {
			err = b.segment(ctx, srv, st, closed, rc, nil)
		}
		debug.SetGCPercent(gc)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if !b.trace {
			cases := newBuildCases(b.seed, r*buildEngines, (r+1)*buildEngines)
			builds += len(cases)
			for _, c := range cases {
				for _, sp := range c.samples {
					io.WriteString(buildDigest, sp.HTML)
				}
			}
			if err := runBuilds(ctx, cases, &bo); err != nil {
				return fmt.Errorf("round %d builds: %w", r, err)
			}
		}
	}
	b.stage("measured rounds done")
	hostTotal1, hostSteal1, err := hostCPU()
	if err != nil {
		return err
	}
	rep, err := srv.report()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading server peak RSS: %w", err)
	}
	srv.stop()

	tripped, suspects := rep.guards(b.w.hitRatioBand, len(tb.engines))
	b.invalid = append(b.invalid, tripped...)
	if len(suspects) > 0 {
		b.linef("drift: %d engines SUSPECT on this traffic (%s); no relearn ran", len(suspects), strings.Join(suspects, " "))
	}
	lag := open.lagMS()
	lagP99, _, ok := percentile(lag, 0.99)
	if !ok {
		b.invalid = append(b.invalid, fmt.Sprintf("loadgen lag: %d samples too few for p99", len(lag)))
	} else if lagP99 > lagP99MaxMs {
		b.invalid = append(b.invalid, fmt.Sprintf("loadgen lag p99 %.3f ms over %d ms: the generator could not keep the schedule", lagP99, lagP99MaxMs))
	}
	attempted := len(st.warm) + len(st.open) + len(st.closed)
	failed := warm.failed + open.failed + closed.failed
	b.res.Attempted += attempted
	b.res.Failed += failed
	b.linef("error_rate %.6f (%d failed of %d requests; non-2xx, transport errors and wrong bodies)",
		float64(failed)/float64(attempted), failed, attempted)
	for _, ph := range []*phase{warm, open, closed} {
		if ph.firstFailure != "" {
			b.linef("first failure: %s", ph.firstFailure)
		}
	}
	lagMed, svcMed := open.lagAndService()
	b.linef("open loop: median lag %.3f ms, median send-to-reply %.3f ms", lagMed, svcMed)
	b.linef("server: excache hit ratio %.4f (%d hits, %d misses, %d collapsed, %d evictions), %d sheds, %d relearn jobs; loadgen lag p99 %.3f ms",
		rep.metrics.Excache.HitRate, rep.metrics.Excache.Hits, rep.metrics.Excache.Misses,
		rep.metrics.Excache.Collapsed, rep.metrics.Excache.Evictions,
		rep.metrics.Metrics.Counters["http.shed_total"], rep.relearnJobs, lagP99)
	b.linef("host: %.1f%% of CPU time stolen by the hypervisor during the measured rounds",
		100*float64(hostSteal1-hostSteal0)/float64(max(1, hostTotal1-hostTotal0)))

	if b.trace {
		cases := newBuildCases(b.seed, 0, traceBuildEngines)
		return b.traced(ctx, tb, wrappers, st, open, rep, lagP99, cases)
	}
	// A p50 timing is the median over the rounds of each round's median,
	// so that a stretch of stolen CPU in a minority of rounds does not
	// decide the run.  The tails are pooled over the run, as the highest
	// percentile with enough samples beyond it.  Which of these are gated
	// is BENCHMARK.json's choice: on a shared VM host the open-loop
	// latencies follow the hypervisor's CPU steal more than the program.
	b.set("setup_s", median(setups), "s", len(setups))
	b.linef("  per set-up: %s", fmtList(setups))
	singles, batches := open.latencies()
	for _, m := range []struct {
		p50, p99 string
		rounds   [][]float64
	}{
		{"latency_p50_ms", "latency_p99_ms", singles},
		{"batch_latency_p50_ms", "batch_latency_p99_ms", batches},
		{"build_ms_p50", "build_ms_p99", bo.ms},
	} {
		v, n, per, err := roundMedian(m.p50, m.rounds, 0.5)
		if err != nil {
			return err
		}
		b.set(m.p50, v, "ms", n)
		b.linef("  per round: %s", fmtList(per))
		var pooled []float64
		for _, r := range m.rounds {
			pooled = append(pooled, r...)
		}
		if p, v, ok := tailPercentile(pooled, 0.999, 0.99, 0.95, 0.9); ok {
			b.linef("%-32s %14.4f %-8s n=%d (tail p%g, pooled, printed, not gated)", m.p99, v, "ms", len(pooled), 100*p)
		}
	}
	// Capacity is the median over rounds of the closed loop's pages per
	// second of server CPU time, times the CPUs the server can use: the
	// rate mse-serve sustains with every CPU busy serving.  CPU time leaves out what the hypervisor
	// steals, which moved the wall-clock rate by up to 38% between runs
	// on a shared host; that rate is printed beside it.
	rates, perCPU, pages := closed.pagesPerSecond()
	capacity := median(perCPU) * float64(runtime.NumCPU())
	if math.IsInf(capacity, 0) {
		return errors.New("the server used no CPU time in a closed-loop round")
	}
	b.set("capacity_pages_per_s", capacity, "pages/s", pages)
	b.linef("  per round, pages per server CPU-second: %s", fmtList(perCPU))
	b.linef("  closed loop wall-clock rate: median %.1f pages/s; per round: %s", median(rates), fmtList(rates))
	recall, served := st.recordRecall()
	b.set("record_recall", recall, "ratio", served)
	b.set("server_rss_peak_mb", rss, "MB", 0)
	b.set("section_recall_perfect", bo.score.RecallPerfect(), "ratio", bo.score.Actual)
	b.res.Attempted += builds
	b.res.Failed += bo.failed
	b.linef("build phase: %d engines, each built %d times, sample-page digest %x, %d failed", builds, buildReps, buildDigest.Sum(nil)[:8], bo.failed)
	return nil
}

// roundMedian is the median over rounds of each round's p-percentile; n
// is the total sample count and per the rounds' figures.  Every round
// must hold enough samples for its percentile.
func roundMedian(name string, rounds [][]float64, p float64) (v float64, n int, per []float64, err error) {
	for i, samples := range rounds {
		x, err := mustPercentile(name, samples, p)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("round %d: %w", i, err)
		}
		per = append(per, x)
		n += len(samples)
	}
	return median(per), n, per, nil
}

func fmtList(vs []float64) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(v, 'f', 3, 64)
	}
	return s
}

// traced runs the in-process replays and reports the per-layer metrics.
func (b *bench) traced(ctx context.Context, tb *testbed, wrappers [][]byte, st *stream, open *phase, rep *serverReport, lagP99 float64, cases []*buildCase) error {
	t := newTracer()
	sr, err := replayServe(ctx, t, tb, wrappers, st, b.w, b.w.replayRequests)
	if err != nil {
		return fmt.Errorf("serve replay: %w", err)
	}
	b.stage("serve replay done")
	br, err := replayBuild(ctx, t, cases, 1<<24)
	if err != nil {
		return fmt.Errorf("build replay: %w", err)
	}
	b.stage("build replay done")
	path := filepath.Join(b.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := t.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	for _, l := range append(sr.lines, br.lines...) {
		b.linef("%s", l)
	}
	b.linef("spans: %d written to %s", len(t.spans), path)
	b.invalid = append(b.invalid, sr.checks...)
	b.invalid = append(b.invalid, br.checks...)

	m := map[string]float64{}
	for k, v := range sr.metrics {
		m[k] = v
	}
	for k, v := range br.metrics {
		m[k] = v
	}
	ex := rep.metrics.Excache
	m["excache.hit_ratio"] = ex.HitRate
	m["excache.evictions"] = float64(ex.Evictions)
	m["excache.collapsed"] = float64(ex.Collapsed)
	arena := rep.metrics.Pools.ParseArena
	m["dom.pool_reuse_ratio"] = float64(arena.Reuses) / float64(max(1, arena.Acquires))
	m["serve.queue_wait_p99_ms"] = rep.metrics.Metrics.Histograms["extract.queue_wait"].P99Ms
	m["serve.shed_total"] = float64(rep.metrics.Metrics.Counters["http.shed_total"])
	singles, _ := open.latencies()
	p50s := make([]float64, len(singles))
	for i, s := range singles {
		p50s[i] = median(s)
	}
	m["http.transport_us"] = 1000*median(p50s) - m["serve.handler_us"]
	m["serve.client_p50_server_share"] = m["serve.handler_us"] / (1000 * median(p50s))
	m["loadgen.lag_p99_ms"] = lagP99
	b.linef("client p50 latency %.1f us: the server's handler takes %.1f us of it, parse, prune, render and apply %.1f us",
		1000*median(p50s), m["serve.handler_us"], m["htmlparse.parse_us"]+m["prune.run_us"]+m["layout.render_pruned_us"]+m["wrapper.apply_us"])
	for _, pl := range b.list {
		if v, ok := m[pl.Name]; ok {
			b.set(pl.Name, v, pl.Unit, 0)
		}
	}
	return nil
}
