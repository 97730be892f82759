package main

import (
	"context"
	"fmt"
	"net/url"

	"permodyssey/internal/analysis"
	"permodyssey/internal/browser"
	"permodyssey/internal/core"
	"permodyssey/internal/crawler"
	"permodyssey/internal/diskcache"
	"permodyssey/internal/html"
	"permodyssey/internal/script"
	"permodyssey/internal/static"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// tracedStack is the crawl stack core.Run assembles (HTTP fetcher →
// breaker → caching fetcher [→ archive] → browser → crawler), rebuilt
// from the public constructors with a tracer wrapped around each layer
// boundary. It covers the option subset the workloads use: caches,
// compile and DOM cache on, unbounded, one shard.
type tracedStack struct {
	crawler *crawler.Crawler
	targets []crawler.Target

	cache        *browser.CachingFetcher
	breaker      *crawler.BreakerFetcher
	scriptCache  *script.ParseCache
	compileCache *script.CompileCache
	domCache     *html.ParseCache
	staticCache  *static.Cache
	archive      *diskcache.Archive
}

// archiveClass mirrors core's archive failure filter: crawl-local
// conditions are not archived.
func archiveClass(err error) string {
	switch c := crawler.Classify(err); c {
	case store.FailureNone, store.FailureCanceled, store.FailureBreakerOpen:
		return ""
	default:
		return string(c)
	}
}

func newTracedStack(srv *synthweb.Server, opts core.MeasurementOptions, tr *tracer) (*tracedStack, error) {
	if opts.DisableCache || opts.DisableCompile || opts.DisableDOMCache || opts.Shards > 1 || opts.CacheEntries != 0 || opts.CacheBytes != 0 {
		return nil, fmt.Errorf("traced stack: options outside the benchmark's subset")
	}
	st := &tracedStack{}
	httpf := browser.NewHTTPFetcher(srv.Client(0))
	if opts.MaxBodyBytes > 0 {
		httpf.MaxBodyBytes = opts.MaxBodyBytes
	}
	var fetcher browser.Fetcher = httpf
	if opts.Breaker.Threshold > 0 {
		st.breaker = crawler.NewBreakerFetcher(fetcher, opts.Breaker)
		fetcher = st.breaker
		opts.Crawl.Breaker = st.breaker.Breaker
	}
	siteHosts := make(map[string]bool, opts.Web.NumSites)
	for _, s := range srv.Sites() {
		st.targets = append(st.targets, crawler.Target{Rank: s.Rank, URL: s.URL()})
		siteHosts[s.Host] = true
	}
	st.cache = browser.NewByteBoundedCachingFetcher(tracedFetcher{inner: fetcher, tr: tr, name: spanNet}, 0, 0)
	st.cache.Cacheable = func(rawURL string) bool {
		u, err := url.Parse(rawURL)
		if err != nil {
			return false
		}
		return !siteHosts[u.Hostname()]
	}
	if opts.CacheDir != "" {
		ar, err := diskcache.Open(opts.CacheDir, diskcache.Options{Offline: opts.Offline, Classify: archiveClass})
		if err != nil {
			return nil, fmt.Errorf("traced stack: opening resource archive: %w", err)
		}
		st.archive = ar
		st.cache.Disk = tracedArchive{inner: ar, tr: tr}
	}
	st.scriptCache = script.NewBoundedParseCache(0)
	st.staticCache = static.NewCache(nil, 0)
	st.compileCache = script.NewBoundedCompileCache(0, tracedParse(tr, st.scriptCache.Parse))
	st.domCache = html.NewParseCache(0, 0)
	opts.BrowserOpts.ScriptCache = st.scriptCache
	opts.BrowserOpts.StaticCache = st.staticCache
	opts.BrowserOpts.CompileCache = st.compileCache
	opts.BrowserOpts.DocCache = st.domCache
	b := browser.New(tracedFetcher{inner: st.cache, tr: tr, name: spanFetch}, opts.BrowserOpts)
	opts.Crawl.Sink = tracedSink(tr, opts.Crawl.Sink)
	st.crawler = crawler.New(b, opts.Crawl)
	return st, nil
}

// stats collects every layer's counters, as core's stack does.
func (st *tracedStack) stats() core.CrawlStats {
	s := core.CrawlStats{
		Crawl:   st.crawler.Stats(),
		Fetch:   st.cache.Stats(),
		Parse:   st.scriptCache.Stats(),
		Static:  st.staticCache.Stats(),
		Compile: st.compileCache.Stats(),
		DOM:     st.domCache.Stats(),
	}
	if st.breaker != nil {
		s.Breaker = st.breaker.Breaker.Stats()
	}
	return s
}

func (st *tracedStack) close() {
	if st.archive != nil {
		st.archive.Close()
	}
}

// runTraced is core.Run over the traced stack: serve the population,
// crawl it, and build the analysis.
func runTraced(ctx context.Context, opts core.MeasurementOptions, tr *tracer) (*core.Measurement, *tracedStack, error) {
	srv := synthweb.NewServer(opts.Web)
	if opts.StallTime > 0 {
		srv.StallTime = opts.StallTime
	}
	if err := srv.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting synthetic web: %w", err)
	}
	defer srv.Close()
	st, err := newTracedStack(srv, opts, tr)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	m := &core.Measurement{Dataset: st.crawler.Crawl(ctx, st.targets)}
	tr.timed(spanAnalysis, func() { m.Analysis = analysis.New(m.Dataset) })
	return m, st, nil
}
