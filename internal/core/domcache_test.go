package core

import (
	"context"
	"testing"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/lru"
	"permodyssey/internal/synthweb"
)

// TestCrawlDOMCacheEquivalence proves the content-addressed DOM cache is
// observationally transparent through the full measurement stack, under
// a chaos-seeded population: crawls with the cache on and off must
// produce byte-identical records (after wall-clock normalization) and
// byte-identical analysis reports. Shared documents (widget frames,
// duplicated templates) exercise real cross-site cache hits.
func TestCrawlDOMCacheEquivalence(t *testing.T) {
	const sites = 120
	opts := chaosSoakOptions(sites)
	// Timing-dependent failure classes (slow-loris, stalls) would make
	// the success set schedule-dependent; equivalence is about content.
	opts.Web.TimeoutRate = 0
	opts.Web.Chaos.Kinds = []synthweb.Fault{
		synthweb.FaultReset, synthweb.FaultMalformedHeader, synthweb.FaultOversizedHeader,
		synthweb.FaultRedirectLoop, synthweb.FaultFlap, synthweb.FaultOversizedBody,
	}
	opts.Crawl.PerSiteTimeout = 5 * time.Second

	run := func(disableDOMCache bool) ([]string, string, CrawlStats) {
		srv := synthweb.NewServer(opts.Web)
		srv.StallTime = opts.StallTime
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		o := opts
		o.DisableDOMCache = disableDOMCache
		stack, err := newCrawlStack(srv, o)
		if err != nil {
			t.Fatal(err)
		}
		defer stack.close()
		ds := stack.crawler.Crawl(context.Background(), stack.targets)
		if len(ds.Records) != sites {
			t.Fatalf("records: %d", len(ds.Records))
		}
		m := &Measurement{Dataset: ds, Analysis: analysis.New(ds), Stats: stack.stats()}
		recs := make([]string, 0, len(ds.Records))
		for _, rec := range ds.Records {
			recs = append(recs, normalizeChaosRecord(t, rec))
		}
		return recs, m.Report(), m.Stats
	}

	plainRecs, plainReport, plainStats := run(true)
	cachedRecs, cachedReport, cachedStats := run(false)

	for i := range plainRecs {
		if plainRecs[i] != cachedRecs[i] {
			t.Errorf("record %d differs with DOM cache on:\nuncached: %s\ncached:   %s",
				i, plainRecs[i], cachedRecs[i])
		}
	}
	if plainReport != cachedReport {
		t.Error("analysis reports differ between cached and uncached crawls")
	}
	// The cached run must have actually cached — and shared: every site
	// embeds common widget documents, so hits must appear.
	if cachedStats.DOM.Misses == 0 {
		t.Fatal("cached run never parsed a document through the cache")
	}
	if cachedStats.DOM.Hits == 0 {
		t.Error("cached run never shared a parsed document across fetches")
	}
	if plainStats.DOM != (lru.Stats{}) {
		t.Errorf("DisableDOMCache run still touched the DOM cache: %+v", plainStats.DOM)
	}
}
