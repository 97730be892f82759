package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/bundle"
	"permodyssey/internal/core"
	"permodyssey/internal/crawler"
	"permodyssey/internal/diskcache"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// chaosFaults are the site faults whose effect does not depend on
// timing. Slow-loris is sleep-bound and oversized-body's 6 MiB bodies
// swamp every other layer, so both stay out.
const chaosFaults = "reset,malformed-header,oversized-header,redirect-loop,flap"

// env is one benchmark process's inputs and scratch space.
type env struct {
	seed  int64
	sites int
	// dir holds what setup builds; iter is emptied after every timed
	// iteration, outside the timed region.
	dir, iter string

	opts   core.MeasurementOptions
	truth  []synthweb.Site // generator descriptors by rank-1
	bundle string          // replay-bundle: the sealed bundle directory
	sealed string          // replay-bundle: its report.txt as sealed
	// want is the report every iteration must reproduce byte for byte.
	want string

	// traceSetup traces the setup crawls that write an archive; the
	// disk writes stay out of timed iterations, so setupLayers are
	// where the diskcache store path is measured.
	traceSetup  bool
	setupLayers []map[string]float64
}

// output is what one iteration produced.
type output struct {
	ds          *store.Dataset
	report      string
	stats       core.CrawlStats
	jsonlBytes  int64 // crawls: bytes the sink encoded
	datasetSize int64 // replay: sealed dataset bytes decoded
	sealedBytes int64 // replay: bytes verified
}

// workload is one seeded input set run through the public entry points.
type workload struct {
	name, why string
	// crawl marks workloads that visit sites (visit metrics apply).
	crawl bool
	// setup builds the inputs from scratch, starting with the generator
	// truth every record is checked against; it runs several times and
	// the last result is kept.
	setup func(ctx context.Context, e *env) error
	// run is one timed iteration; tr is nil for untraced iterations.
	run func(ctx context.Context, e *env, tr *tracer) (*output, error)
}

var workloads = []workload{
	{
		name:  "crawl-live",
		why:   "paper-calibrated population crawled over loopback: fetch, DOM, script and policy work with Zipf-shared widgets hitting the caches",
		crawl: true,
		setup: func(ctx context.Context, e *env) error {
			e.opts = e.options(false)
			e.truth = generate(e.opts.Web)
			return nil
		},
		run: func(ctx context.Context, e *env, tr *tracer) (*output, error) {
			return e.crawl(ctx, e.opts, tr)
		},
	},
	{
		name:  "crawl-offline",
		why:   "same population replayed from a warmed archive with no network fetches: isolates the substrate share and the diskcache read path",
		crawl: true,
		setup: func(ctx context.Context, e *env) error {
			e.opts = e.options(false)
			e.truth = generate(e.opts.Web)
			e.opts.CacheDir = filepath.Join(e.dir, "archive")
			if err := os.RemoveAll(e.opts.CacheDir); err != nil {
				return err
			}
			warm, err := e.archiveCrawl(ctx, e.opts)
			if err != nil {
				return err
			}
			if err := checkRecords(warm.ds, e.truth); err != nil {
				return fmt.Errorf("warm crawl: %w", err)
			}
			// Offline iterations must reproduce the live crawl's report.
			e.opts.Offline = true
			return e.reference(warm.report)
		},
		run: func(ctx context.Context, e *env, tr *tracer) (*output, error) {
			out, err := e.crawl(ctx, e.opts, tr)
			if err == nil && out.stats.Fetch.NetworkFetches != 0 {
				err = fmt.Errorf("offline crawl made %d network fetches, want 0", out.stats.Fetch.NetworkFetches)
			}
			return out, err
		},
	},
	{
		name:  "crawl-chaos",
		why:   "timing-free fault mix with retries and breaker at permcrawl defaults: scheduler, breaker and failure classification do the work",
		crawl: true,
		setup: func(ctx context.Context, e *env) error {
			e.opts = e.options(true)
			e.truth = generate(e.opts.Web)
			return nil
		},
		run: func(ctx context.Context, e *env, tr *tracer) (*output, error) {
			return e.crawl(ctx, e.opts, tr)
		},
	},
	{
		name: "replay-bundle",
		why:  "sealed directory bundle of the chaos crawl opened, verified, decoded and re-analysed: bundle, store and analysis only, no browser",
		setup: func(ctx context.Context, e *env) error {
			e.opts = e.options(true)
			e.truth = generate(e.opts.Web)
			return e.seal(ctx)
		},
		run: func(ctx context.Context, e *env, tr *tracer) (*output, error) {
			return e.replay(tr)
		},
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options mirrors permcrawl's defaults, with the worker count at the
// machine's CPU count and stall-based timeouts off: a stalled site
// measures a sleep, not the program.
func (e *env) options(chaos bool) core.MeasurementOptions {
	opts := core.DefaultMeasurementOptions()
	opts.Web.NumSites = e.sites
	opts.Web.Seed = e.seed
	opts.Web.TimeoutRate = 0
	opts.Crawl.Workers = runtime.NumCPU()
	opts.Crawl.PerSiteTimeout = 2 * time.Second
	opts.Crawl.MaxRetries = 1
	opts.Crawl.RetryBackoff = 100 * time.Millisecond
	opts.Crawl.HostConcurrency = crawler.DefaultHostConcurrency
	opts.Crawl.DeferBreakerOpen = true
	opts.StallTime = 2 * opts.Crawl.PerSiteTimeout
	opts.Breaker = crawler.BreakerConfig{Threshold: 5, Cooldown: 500 * time.Millisecond}
	if chaos {
		cc := synthweb.DefaultChaosConfig()
		kinds, err := synthweb.ParseFaultList(chaosFaults)
		if err != nil {
			panic(err) // a constant list
		}
		cc.Kinds = kinds
		opts.Web.Chaos = cc
	}
	return opts
}

func generate(cfg synthweb.Config) []synthweb.Site {
	sites := make([]synthweb.Site, cfg.NumSites)
	for rank := 1; rank <= cfg.NumSites; rank++ {
		sites[rank-1] = cfg.Generate(rank)
	}
	return sites
}

// crawl runs one measurement as permcrawl does: core.Run (or its
// traced twin) with a sink that JSONL-encodes every record to a file.
func (e *env) crawl(ctx context.Context, opts core.MeasurementOptions, tr *tracer) (*output, error) {
	f, err := os.Create(filepath.Join(e.iter, "crawl.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	cw := &countingWriter{w: bw}
	enc := json.NewEncoder(cw)
	var sinkErr error
	opts.Crawl.Sink = func(rec store.SiteRecord) {
		if err := enc.Encode(rec); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	out := &output{}
	var m *core.Measurement
	if tr == nil {
		m, err = core.Run(ctx, opts)
		if err != nil {
			return nil, err
		}
		out.report = m.Report()
		out.stats = m.Stats
	} else {
		var st *tracedStack
		m, st, err = runTraced(ctx, opts, tr)
		if err != nil {
			return nil, err
		}
		tr.timed(spanReport, func() { out.report = m.Report() })
		out.stats = st.stats()
	}
	if err := errors.Join(sinkErr, bw.Flush(), f.Close()); err != nil {
		return nil, fmt.Errorf("writing dataset: %w", err)
	}
	out.ds = m.Dataset
	out.jsonlBytes = cw.n
	return out, nil
}

// archiveCrawl is a setup crawl that writes through an archive.
func (e *env) archiveCrawl(ctx context.Context, opts core.MeasurementOptions) (*output, error) {
	if !e.traceSetup {
		return e.crawl(ctx, opts, nil)
	}
	tr := newTracer()
	out, err := e.crawl(ctx, opts, tr)
	if err != nil {
		return nil, err
	}
	tr.finish()
	e.setupLayers = append(e.setupLayers, layers(tr, out, true, e.sites))
	return out, nil
}

// countingWriter counts bytes on their way to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// seal runs the chaos crawl through an archive and seals it into a
// directory bundle, as permcrawl -bundle does.
func (e *env) seal(ctx context.Context) error {
	root := filepath.Join(e.dir, "sealed")
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	opts := e.opts
	opts.CacheDir = filepath.Join(root, "archive")
	out, err := e.archiveCrawl(ctx, opts)
	if err != nil {
		return err
	}
	if err := checkRecords(out.ds, e.truth); err != nil {
		return fmt.Errorf("sealed crawl: %w", err)
	}
	if _, err := diskcache.MergeShards(opts.CacheDir); err != nil {
		return fmt.Errorf("compacting archive: %w", err)
	}
	if err := e.reference(out.report); err != nil {
		return err
	}
	e.bundle = filepath.Join(root, "bundle")
	_, err = bundle.Seal(e.bundle, bundle.Spec{
		DatasetPath: filepath.Join(e.iter, "crawl.jsonl"),
		ArchiveDir:  opts.CacheDir,
		Report:      out.report + "\n", // as permcrawl prints it
		Tool:        "perfbench",
		ToolVersion: core.ToolVersion,
		Config:      bundle.Config{Sites: e.sites, Seed: e.seed, Chaos: true, ChaosFaults: chaosFaults},
		Records:     len(out.ds.Records),
	})
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(e.bundle, bundle.ReportName))
	e.sealed = string(raw)
	return err
}

// replay is permreport -from-bundle: open, verify, decode, analyse.
func (e *env) replay(tr *tracer) (*output, error) {
	var (
		b   *bundle.Bundle
		err error
		out = &output{}
	)
	tr.timed(spanOpen, func() { b, err = bundle.Open(e.bundle) })
	if err != nil {
		return nil, err
	}
	defer b.Close()
	tr.timed(spanVerify, func() { err = b.Verify("") })
	if err != nil {
		return nil, err
	}
	tr.timed(spanRead, func() { out.ds, err = b.Dataset() })
	if err != nil {
		return nil, err
	}
	var a *analysis.Analysis
	tr.timed(spanAnalysis, func() { a = analysis.New(out.ds) })
	tr.timed(spanReport, func() { out.report = a.FullReport() })
	for _, f := range b.Manifest.Files {
		out.sealedBytes += f.Size
		if f.Path == bundle.DatasetName {
			out.datasetSize = f.Size
		}
	}
	return out, nil
}

// digest is a short fingerprint of a report for provenance and errors.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// expected maps a generated site to the failure classes a correct
// crawl records for it: its fate, or on a healthy site its chaos fault.
// A healthy site may still be excluded for having too many frames, a
// property of its page. Flapping hosts fail more requests than the one
// retry the crawl spends, so they stay ephemeral.
func expected(s synthweb.Site) []store.FailureClass {
	switch s.Kind {
	case synthweb.KindUnreachable:
		return []store.FailureClass{store.FailureUnreachable}
	case synthweb.KindTimeout:
		return []store.FailureClass{store.FailureTimeout}
	case synthweb.KindEphemeral:
		return []store.FailureClass{store.FailureEphemeral}
	case synthweb.KindMinor:
		return []store.FailureClass{store.FailureMinor}
	}
	switch s.Fault {
	case synthweb.FaultReset, synthweb.FaultFlap:
		return []store.FailureClass{store.FailureEphemeral}
	case synthweb.FaultMalformedHeader, synthweb.FaultOversizedHeader, synthweb.FaultRedirectLoop:
		return []store.FailureClass{store.FailureMinor}
	case synthweb.FaultNone:
		return []store.FailureClass{store.FailureNone, store.FailureExcluded}
	}
	return nil
}

// checkRecords is the per-record gate: one record per generated site,
// none cancelled, each with the failure class its generated fate and
// fault call for.
func checkRecords(ds *store.Dataset, truth []synthweb.Site) error {
	sites := len(truth)
	if ds == nil || len(ds.Records) != sites {
		n := 0
		if ds != nil {
			n = len(ds.Records)
		}
		return fmt.Errorf("%d records, want %d", n, sites)
	}
	seen := make([]bool, sites+1)
	var bad []string
	for _, r := range ds.Records {
		if r.Rank < 1 || r.Rank > sites || seen[r.Rank] {
			return fmt.Errorf("record rank %d duplicated or out of range", r.Rank)
		}
		seen[r.Rank] = true
		site := truth[r.Rank-1]
		ok := false
		for _, c := range expected(site) {
			if r.Failure == c && (c != store.FailureNone || r.OK()) {
				ok = true
			}
		}
		if !ok && len(bad) < 5 {
			bad = append(bad, fmt.Sprintf("rank %d: %q for generated %s/%s", r.Rank, r.Failure, site.Kind, site.Fault))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failure classes disagree with the generator: %s", strings.Join(bad, "; "))
	}
	return nil
}

// reference pins the report every later output of this seed must
// reproduce; a second, different reference fails.
func (e *env) reference(report string) error {
	if e.want != "" && report != e.want {
		return fmt.Errorf("report digest %s, want %s", digest(report), digest(e.want))
	}
	e.want = report
	return nil
}

// checkOutput gates one iteration: the record gate, then the report
// against the reference every run of this seed must reproduce.
func (e *env) checkOutput(out *output) error {
	if err := checkRecords(out.ds, e.truth); err != nil {
		return err
	}
	if e.sealed != "" && out.report+"\n" != e.sealed {
		return fmt.Errorf("replayed report differs from the sealed report (%s vs %s)", digest(out.report), digest(e.sealed))
	}
	return e.reference(out.report)
}
