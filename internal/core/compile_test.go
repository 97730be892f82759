package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/synthweb"
)

// Digests of the normalized records and the analysis report of the
// crawl below, recorded from the original tree-walking interpreter
// before the compiled engine became the only one. They anchor the
// crawl to that engine's observations, not just to another run of the
// current code.
const (
	goldenCompileRecordsSHA = "e75b7e0b33f8ba3185b12fc342259a46582b9c68915820d2ea6add4de8737f08"
	goldenCompileReportSHA  = "7fc37e87e54470b456b2d61978229230bea695ffd017a34e1aa6d5ae597b7c5b"
)

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestCrawlCompileEquivalence proves the shared compile cache is
// observationally transparent through the full measurement stack, under
// a chaos-seeded population: a crawl whose realms each parse and compile
// their own scripts and one sharing compiled programs across realms
// must produce byte-identical records (after wall-clock normalization)
// and byte-identical analysis reports, and both must match the digests
// recorded from the tree-walking interpreter.
func TestCrawlCompileEquivalence(t *testing.T) {
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

	run := func(disableCompile bool) ([]string, string, CrawlStats) {
		srv := synthweb.NewServer(opts.Web)
		srv.StallTime = opts.StallTime
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		o := opts
		o.DisableCompile = disableCompile
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

	offRecs, offReport, offStats := run(true)
	onRecs, onReport, onStats := run(false)

	for i := range offRecs {
		if offRecs[i] != onRecs[i] {
			t.Errorf("record %d differs with the compile cache on:\noff: %s\non:  %s",
				i, offRecs[i], onRecs[i])
		}
	}
	if offReport != onReport {
		t.Error("analysis reports differ with the compile cache on")
	}
	if got := sha256Hex(strings.Join(offRecs, "\n")); got != goldenCompileRecordsSHA {
		t.Errorf("records digest %s, golden %s", got, goldenCompileRecordsSHA)
	}
	if got := sha256Hex(offReport); got != goldenCompileReportSHA {
		t.Errorf("report digest %s, golden %s", got, goldenCompileReportSHA)
	}
	// The cached run must actually have compiled — and shared: far
	// fewer compiles than executions (every site embeds shared widgets).
	if onStats.Compile.Misses == 0 {
		t.Fatal("cached run never compiled a script")
	}
	if onStats.Compile.Hits == 0 {
		t.Error("cached run never shared a compiled program across frames")
	}
	if offStats.Compile.Misses != 0 || offStats.Compile.Hits != 0 {
		t.Errorf("DisableCompile run still touched the compile cache: %+v", offStats.Compile)
	}
}
