// Command perfbench is the repository benchmark. It runs one seeded
// workload through the pipeline's public entry points (core.Run,
// bundle.Open/Verify/Dataset, analysis.New(...).FullReport()), checks
// every output, and prints each metric by name and unit. The last line
// of standard output is one JSON result object.
//
//	perfbench -workload crawl-live -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced
// iterations. With -trace 1 it alternates untraced iterations with
// traced ones, whose stack is rebuilt from the public constructors with
// a span recorder around each layer boundary, and reports the
// per-layer metrics. Spans stay in memory and the last traced
// iteration's are written under <root>/.bench_build/trace at the end.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"permodyssey/internal/bundle"
	"permodyssey/internal/core"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// defaultSites is each iteration's population size: large enough that
// the seeded failure share varies little between seeds.
const defaultSites = 4000

// setupRepeats is how many times setup runs; setup_s is their median.
const setupRepeats = 3

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
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

// provenance is recorded next to every result.
type provenance struct {
	Workload     string          `json:"workload"`
	Seed         int64           `json:"seed"`
	Sites        int             `json:"sites"`
	Seconds      int             `json:"seconds"`
	Trace        int             `json:"trace"`
	Population   synthweb.Config `json:"population"`
	ChaosFaults  string          `json:"chaos_faults,omitempty"`
	Workers      int             `json:"workers"`
	PerSiteMS    int64           `json:"per_site_timeout_ms"`
	Retries      int             `json:"retries"`
	Breaker      int             `json:"breaker_threshold"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	GoVersion    string          `json:"go_version"`
	ToolVersion  string          `json:"tool_version"`
	StoreSchema  int             `json:"store_schema"`
	BundleFormat int             `json:"bundle_format"`
	ReportDigest string          `json:"report_digest"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: crawl-live, crawl-offline, crawl-chaos, replay-bundle")
	seed := fs.Int64("seed", 1, "population seed")
	seconds := fs.Int("seconds", 10, "how long the timed iterations run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced iterations")
	root := fs.String("root", ".", "checkout root; scratch and trace files go under <root>/.bench_build")
	sites := fs.Int("sites", defaultSites, "sites per population")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || *sites < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want -workload one of crawl-live, crawl-offline, crawl-chaos, replay-bundle, -seconds >= 1, -sites >= 1, -trace 0 or 1")
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(build, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, sites: *sites, dir: dir, iter: filepath.Join(dir, "iter"), traceSetup: *trace == 1}
	b := &bench{w: w, e: e, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := b.run(ctx)
	prov := b.provenance(*seconds, *trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		res.Correct = false
	}
	if b.last != nil && err == nil {
		path := filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if werr := b.last.write(path, prov); werr != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", werr)
		} else {
			fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(b.last.spans), path)
		}
	}
	raw, _ := json.Marshal(prov) // plain data: cannot fail
	fmt.Fprintf(stdout, "provenance: %s\n", raw)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-36s %14.4f %-6s %s\n", n, m.Value, m.Unit, b.spread[n])
	}
	raw, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload in this process.
type bench struct {
	w       workload
	e       *env
	seconds time.Duration
	traced  bool

	setups []float64
	plain  []iteration // untraced timed iterations
	trace  []iteration // traced timed iterations
	last   *tracer     // spans of the last traced iteration
	heap   uint64      // live-heap peak over the timed region
	spread map[string]string
}

// iteration is one timed pass and what it cost.
type iteration struct {
	cost   cost
	failed float64            // share of records not OK
	visits []float64          // first-attempt visit latencies, ms
	layers map[string]float64 // traced iterations only
}

func (b *bench) run(ctx context.Context) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	b.spread = map[string]string{}
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each setup starts from a collected heap, as iterations do
		start := time.Now()
		if err := b.setup(ctx); err != nil {
			return result{Metrics: map[string]metric{}}, fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}
	// One untimed warm-up: the first crawl in a process runs slower.
	if _, err := b.iterate(ctx, nil); err != nil {
		return result{Metrics: map[string]metric{}}, fmt.Errorf("warm-up: %w", err)
	}
	hs := startHeapSampler()
	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline) || len(b.plain) < 2 || (b.traced && len(b.trace) < 2); i++ {
		var tr *tracer
		if b.traced && i%2 == 1 {
			tr = newTracer()
		}
		it, err := b.iterate(ctx, tr)
		res.Attempted += b.e.sites
		if err != nil {
			b.heap = hs.Stop()
			res.Failed += b.e.sites
			return res, err
		}
		if tr == nil {
			b.plain = append(b.plain, it)
		} else {
			b.trace = append(b.trace, it)
			b.last = tr
		}
	}
	b.heap = hs.Stop()
	if b.traced {
		res.Metrics = b.layerMetrics()
	} else {
		res.Metrics = b.endToEnd()
	}
	return res, nil
}

// setup builds the workload's inputs in an empty scratch directory.
func (b *bench) setup(ctx context.Context) error {
	if err := b.clean(); err != nil {
		return err
	}
	return b.w.setup(ctx, b.e)
}

// clean empties the per-iteration scratch directory.
func (b *bench) clean() error {
	if err := os.RemoveAll(b.e.iter); err != nil {
		return err
	}
	return os.MkdirAll(b.e.iter, 0o755)
}

// iterate runs and gates one iteration. The scratch directory is
// emptied before, untimed.
func (b *bench) iterate(ctx context.Context, tr *tracer) (iteration, error) {
	if err := b.clean(); err != nil {
		return iteration{}, err
	}
	syscall.Sync()
	runtime.GC()
	before := takeSample()
	out, err := b.w.run(ctx, b.e, tr)
	c := since(before)
	if err != nil {
		return iteration{}, err
	}
	if tr != nil {
		tr.finish()
	}
	if err := b.e.checkOutput(out); err != nil {
		return iteration{}, err
	}
	// Keep only what the metrics read: the dataset itself is large.
	it := iteration{cost: c, failed: failedShare(out.ds), visits: firstAttemptMS(out.ds)}
	if tr != nil {
		it.layers = layers(tr, out, b.w.crawl, b.e.sites)
	}
	return it, nil
}

func (b *bench) provenance(seconds, trace int) provenance {
	opts := b.e.opts
	p := provenance{
		Workload:     b.w.name,
		Seed:         b.e.seed,
		Sites:        b.e.sites,
		Seconds:      seconds,
		Trace:        trace,
		Population:   opts.Web,
		Workers:      opts.Crawl.Workers,
		PerSiteMS:    opts.Crawl.PerSiteTimeout.Milliseconds(),
		Retries:      opts.Crawl.MaxRetries,
		Breaker:      opts.Breaker.Threshold,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		ToolVersion:  core.ToolVersion,
		StoreSchema:  store.SchemaVersion,
		BundleFormat: bundle.FormatVersion,
		ReportDigest: digest(b.e.want),
	}
	if opts.Web.Chaos.Enabled {
		p.ChaosFaults = chaosFaults
	}
	return p
}

// collect returns the median of f over the iterations and records its
// quartiles for the human-readable listing.
func (b *bench) collect(name string, its []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	b.spread[name] = fmt.Sprintf("(q1 %.4f, q3 %.4f, n=%d)", quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	return median(xs)
}

// endToEnd computes the user-visible metrics over untraced iterations.
func (b *bench) endToEnd() map[string]metric {
	n := float64(b.e.sites)
	m := map[string]metric{
		"sites_per_s": {b.collect("sites_per_s", b.plain, func(it iteration) float64 {
			return n / it.cost.wall.Seconds()
		}), "1/s"},
		"cpu_ms_per_site": {b.collect("cpu_ms_per_site", b.plain, func(it iteration) float64 {
			return ms(it.cost.cpu) / n
		}), "ms"},
		"allocs_per_site": {b.collect("allocs_per_site", b.plain, func(it iteration) float64 {
			return float64(it.cost.mallocs) / n
		}), "count"},
		"alloc_kb_per_site": {b.collect("alloc_kb_per_site", b.plain, func(it iteration) float64 {
			return float64(it.cost.allocBytes) / 1024 / n
		}), "KiB"},
		"peak_rss_mb":  {peakRSSMiB(), "MiB"},
		"failed_share": {b.plain[len(b.plain)-1].failed, "ratio"},
		"setup_s":      {median(b.setups), "s"},
	}
	b.spread["setup_s"] = fmt.Sprintf("(min %.4f, max %.4f, n=%d)", quantile(b.setups, 0), quantile(b.setups, 1), len(b.setups))
	if !b.w.crawl {
		// Nothing is visited in a replay: its user waits for the whole
		// replay, open to report.
		m["visit_p50_ms"] = metric{b.collect("visit_p50_ms", b.plain, func(it iteration) float64 {
			return ms(it.cost.wall)
		}), "ms"}
		return m
	}
	// Visit latency pools every first-attempt record of every timed
	// iteration.
	var visits []float64
	for _, it := range b.plain {
		visits = append(visits, it.visits...)
	}
	m["visit_p50_ms"] = metric{median(visits), "ms"}
	b.spread["visit_p50_ms"] = fmt.Sprintf("(p99 %.4f, n=%d first-attempt records)", quantile(visits, 0.99), len(visits))
	return m
}

func failedShare(ds *store.Dataset) float64 {
	bad := 0
	for _, r := range ds.Records {
		if !r.OK() {
			bad++
		}
	}
	return float64(bad) / float64(len(ds.Records))
}

// firstAttemptMS lists Elapsed of records that settled on their first
// attempt; a retried record's Elapsed includes its requeue waits.
func firstAttemptMS(ds *store.Dataset) []float64 {
	var out []float64
	for _, r := range ds.Records {
		if r.Retries == 0 {
			out = append(out, ms(r.Elapsed))
		}
	}
	return out
}

// layerUnits maps each per-layer metric to its unit.
var layerUnits = map[string]string{
	"browser.net.calls_per_site":       "count",
	"browser.net.busy_ms_per_site":     "ms",
	"browser.net.kb_per_site":          "KiB",
	"browser.net.errors":               "count",
	"browser.fetch.calls_per_site":     "count",
	"browser.fetch.busy_ms_per_site":   "ms",
	"browser.fetch.p99_ms":             "ms",
	"browser.cache.hit_ratio":          "ratio",
	"browser.visit_self_ms_per_site":   "ms",
	"script.parse.misses":              "count",
	"script.parse.busy_ms":             "ms",
	"script.compile.hit_ratio":         "ratio",
	"html.dom.hit_ratio":               "ratio",
	"html.dom.cached_mb":               "MiB",
	"static.hit_ratio":                 "ratio",
	"diskcache.load.calls":             "count",
	"diskcache.load.busy_ms_per_site":  "ms",
	"diskcache.store.calls":            "count",
	"diskcache.store.busy_ms_per_site": "ms",
	"crawler.retries":                  "count",
	"crawler.requeued":                 "count",
	"crawler.deferred":                 "count",
	"crawler.breaker_deferred":         "count",
	"crawler.max_ready":                "count",
	"crawler.breaker.trips":            "count",
	"crawler.breaker.short_circuits":   "count",
	"crawler.visit_p99_ms":             "ms",
	"store.write.busy_ms_per_site":     "ms",
	"store.write.kb_per_site":          "KiB",
	"store.read_ms":                    "ms",
	"store.read_mb_per_s":              "MiB/s",
	"analysis.new_ms":                  "ms",
	"analysis.report_ms":               "ms",
	"bundle.open_ms":                   "ms",
	"bundle.verify_ms":                 "ms",
	"bundle.verify_mb_per_s":           "MiB/s",
	"runtime.gc_cpu_share":             "ratio",
	"runtime.heap_peak_mb":             "MiB",
	"runtime.gc_cycles":                "count",
	"trace.overhead_share":             "ratio",
}

// layerMetrics takes each per-layer metric's median over the traced
// iterations; the runtime metrics come from the untraced ones.
func (b *bench) layerMetrics() map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits {
		if strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "trace.") {
			continue
		}
		its := b.trace
		if strings.HasPrefix(name, "diskcache.store.") {
			// Archive writes happen only in setup crawls.
			its = make([]iteration, len(b.e.setupLayers))
			for i, l := range b.e.setupLayers {
				its[i].layers = l
			}
		}
		out[name] = metric{b.collect(name, its, func(it iteration) float64 { return it.layers[name] }), unit}
	}
	var gcCPU, cpu float64
	for _, it := range b.plain {
		gcCPU += it.cost.gcCPU
		cpu += it.cost.cpu.Seconds()
	}
	out["runtime.gc_cpu_share"] = metric{ratio(gcCPU, cpu), "ratio"}
	out["runtime.heap_peak_mb"] = metric{float64(b.heap) / (1 << 20), "MiB"}
	out["runtime.gc_cycles"] = metric{b.collect("runtime.gc_cycles", b.plain, func(it iteration) float64 {
		return float64(it.cost.gcCycles)
	}), "count"}
	rate := func(it iteration) float64 { return float64(b.e.sites) / it.cost.wall.Seconds() }
	plain := b.collect("sites_per_s", b.plain, rate)
	traced := b.collect("sites_per_s(traced)", b.trace, rate)
	out["trace.overhead_share"] = metric{1 - traced/plain, "ratio"}
	b.spread["trace.overhead_share"] = fmt.Sprintf("(untraced %.1f, traced %.1f sites/s)", plain, traced)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives one traced iteration's per-layer metrics from its
// spans and the layers' own counters.
func layers(tr *tracer, out *output, crawl bool, sites int) map[string]float64 {
	n := float64(sites)
	busy := map[string]time.Duration{}
	calls := map[string]float64{}
	bytes := map[string]float64{}
	errs := map[string]float64{}
	var fetchDur []float64
	byGroup := map[int][]span{}
	for _, s := range tr.spans {
		busy[s.Name] += s.dur()
		calls[s.Name]++
		bytes[s.Name] += float64(s.Bytes)
		if s.Err {
			errs[s.Name]++
		}
		if s.Name == spanFetch {
			fetchDur = append(fetchDur, ms(s.dur()))
			byGroup[s.Group] = append(byGroup[s.Group], s)
		}
	}
	// Visit self time: each first-attempt visit minus the part of it its
	// fetches cover.
	var self time.Duration
	visits := 0
	for _, s := range tr.spans {
		if s.Name == spanVisit {
			self += s.dur() - covered(byGroup[s.Group])
			visits++
		}
	}
	st := out.stats
	l := map[string]float64{
		"browser.net.calls_per_site":       calls[spanNet] / n,
		"browser.net.busy_ms_per_site":     ms(busy[spanNet]) / n,
		"browser.net.kb_per_site":          bytes[spanNet] / 1024 / n,
		"browser.net.errors":               errs[spanNet],
		"browser.fetch.calls_per_site":     calls[spanFetch] / n,
		"browser.fetch.busy_ms_per_site":   ms(busy[spanFetch]) / n,
		"browser.fetch.p99_ms":             quantile(fetchDur, 0.99),
		"browser.cache.hit_ratio":          ratio(float64(st.Fetch.Hits+st.Fetch.Coalesced), float64(st.Fetch.Hits+st.Fetch.Coalesced+st.Fetch.Misses)),
		"browser.visit_self_ms_per_site":   ratio(ms(self), float64(visits)),
		"script.parse.misses":              float64(st.Parse.Misses),
		"script.parse.busy_ms":             ms(busy[spanParse]),
		"script.compile.hit_ratio":         ratio(float64(st.Compile.Hits+st.Compile.Coalesced), float64(st.Compile.Hits+st.Compile.Coalesced+st.Compile.Misses)),
		"html.dom.hit_ratio":               ratio(float64(st.DOM.Hits+st.DOM.Coalesced), float64(st.DOM.Hits+st.DOM.Coalesced+st.DOM.Misses)),
		"html.dom.cached_mb":               float64(st.DOM.CachedBytes) / (1 << 20),
		"static.hit_ratio":                 ratio(float64(st.Static.Hits), float64(st.Static.Hits+st.Static.Misses)),
		"diskcache.load.calls":             calls[spanLoad],
		"diskcache.load.busy_ms_per_site":  ms(busy[spanLoad]) / n,
		"diskcache.store.calls":            calls[spanStore],
		"diskcache.store.busy_ms_per_site": ms(busy[spanStore]) / n,
		"crawler.retries":                  float64(st.Crawl.Retries),
		"crawler.requeued":                 float64(st.Crawl.Requeued),
		"crawler.deferred":                 float64(st.Crawl.Deferred),
		"crawler.breaker_deferred":         float64(st.Crawl.BreakerDeferred),
		"crawler.max_ready":                float64(st.Crawl.MaxReadyDepth),
		"crawler.breaker.trips":            float64(st.Breaker.Trips),
		"crawler.breaker.short_circuits":   float64(st.Breaker.ShortCircuits),
		"store.write.busy_ms_per_site":     ms(busy[spanSink]) / n,
		"store.write.kb_per_site":          float64(out.jsonlBytes) / 1024 / n,
		"store.read_ms":                    ms(busy[spanRead]),
		"store.read_mb_per_s":              ratio(float64(out.datasetSize)/(1<<20), busy[spanRead].Seconds()),
		"analysis.new_ms":                  ms(busy[spanAnalysis]),
		"analysis.report_ms":               ms(busy[spanReport]),
		"bundle.open_ms":                   ms(busy[spanOpen]),
		"bundle.verify_ms":                 ms(busy[spanVerify]),
		"bundle.verify_mb_per_s":           ratio(float64(out.sealedBytes)/(1<<20), busy[spanVerify].Seconds()),
	}
	if crawl {
		l["crawler.visit_p99_ms"] = quantile(firstAttemptMS(out.ds), 0.99)
	}
	return l
}
