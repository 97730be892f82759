package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"permodyssey/internal/browser"
	"permodyssey/internal/script"
	"permodyssey/internal/store"
)

// Span names recorded at the layer boundaries the benchmark can reach
// from outside the program.
const (
	spanIteration = "iteration"
	spanVisit     = "crawler.visit"  // reconstructed from SiteRecord.Elapsed at the sink
	spanFetch     = "browser.fetch"  // Fetcher above CachingFetcher: what the page waits for
	spanNet       = "browser.net"    // Fetcher below CachingFetcher: loopback to synthweb
	spanLoad      = "diskcache.load" // ResponseArchive.Load
	spanStore     = "diskcache.store"
	spanParse     = "script.parse" // parse func under the compile cache
	spanSink      = "store.write"  // crawler Sink: JSONL encode
	spanAnalysis  = "analysis.new"
	spanReport    = "analysis.report"
	spanOpen      = "bundle.open"
	spanVerify    = "bundle.verify"
	spanRead      = "store.read" // bundle Dataset decode
)

// span is one timed call at a layer boundary. Start and End are
// offsets from the tracer's epoch. Fetch-layer spans carry the visit
// attempt they ran under (Group, -1 otherwise); Parent is resolved when
// the iteration ends, because a visit's own span is only known once its
// record reaches the sink.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Group  int           `json:"-"`
	Bytes  int64         `json:"bytes,omitempty"`
	Err    bool          `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of one iteration in memory.
type tracer struct {
	epoch time.Time
	root  int

	mu     sync.Mutex
	spans  []span
	groups map[context.Context]int // visit-attempt context → group
	pages  map[string]int          // page URL → first attempt's group
}

func newTracer() *tracer {
	t := &tracer{
		epoch:  time.Now(),
		groups: map[context.Context]int{},
		pages:  map[string]int{},
		spans:  make([]span, 0, 1<<14),
	}
	t.root = t.add(span{Name: spanIteration, Parent: -1, Group: -1})
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// timed records name around fn with the iteration as parent. A nil
// tracer just runs fn.
func (t *tracer) timed(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	end := t.now()
	t.add(span{Name: name, Parent: t.root, Start: start, End: end, Group: -1})
}

// group maps a fetch's context to the visit attempt it belongs to. The
// crawler gives every attempt its own deadline context and the browser
// passes it unchanged to each fetch, so context identity separates
// attempts; the first URL fetched under it is the attempt's page.
func (t *tracer) group(ctx context.Context, rawURL string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.groups[ctx]
	if !ok {
		g = len(t.groups)
		t.groups[ctx] = g
		if _, seen := t.pages[rawURL]; !seen {
			t.pages[rawURL] = g
		}
	}
	return g
}

// finish closes the iteration span and parents each fetch-layer span
// on the visit span of its attempt. Only first attempts have a visit
// span (a retried record's Elapsed includes requeue waits), so fetches
// of retried attempts keep the iteration as parent.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.root].End = time.Since(t.epoch)
	visitOf := map[int]int{} // group → visit span
	for _, s := range t.spans {
		if s.Name == spanVisit {
			visitOf[s.Group] = s.ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != spanFetch && s.Name != spanNet {
			continue
		}
		s.Parent = t.root
		if v, ok := visitOf[s.Group]; ok {
			s.Parent = v
		}
	}
}

// write streams the spans as JSON lines after a header line.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFetcher wraps a browser.Fetcher boundary.
type tracedFetcher struct {
	inner browser.Fetcher
	tr    *tracer
	name  string
}

func (f tracedFetcher) Fetch(ctx context.Context, rawURL string) (*browser.Response, error) {
	g := f.tr.group(ctx, rawURL)
	start := f.tr.now()
	resp, err := f.inner.Fetch(ctx, rawURL)
	s := span{Name: f.name, Start: start, End: f.tr.now(), Group: g, Err: err != nil}
	if resp != nil {
		s.Bytes = int64(len(resp.Body))
	}
	f.tr.add(s)
	return resp, err
}

// tracedArchive wraps the ResponseArchive handed to CachingFetcher.Disk.
type tracedArchive struct {
	inner browser.ResponseArchive
	tr    *tracer
}

func (a tracedArchive) Load(rawURL string) (*browser.Response, error) {
	start := a.tr.now()
	resp, err := a.inner.Load(rawURL)
	s := span{Name: spanLoad, Start: start, End: a.tr.now(), Group: -1, Err: err != nil}
	if resp != nil {
		s.Bytes = int64(len(resp.Body))
	}
	a.tr.add(s)
	return resp, err
}

func (a tracedArchive) Store(rawURL string, resp *browser.Response) {
	start := a.tr.now()
	a.inner.Store(rawURL, resp)
	a.tr.add(span{Name: spanStore, Start: start, End: a.tr.now(), Group: -1, Bytes: int64(len(resp.Body))})
}

func (a tracedArchive) StoreFailure(rawURL string, fetchErr error) {
	start := a.tr.now()
	a.inner.StoreFailure(rawURL, fetchErr)
	a.tr.add(span{Name: spanStore, Start: start, End: a.tr.now(), Group: -1, Err: true})
}

func (a tracedArchive) Stats() browser.ArchiveStats { return a.inner.Stats() }

// tracedParse wraps the parse func the compile cache calls on a miss.
func tracedParse(tr *tracer, parse func(string) (*script.Program, error)) func(string) (*script.Program, error) {
	return func(src string) (*script.Program, error) {
		start := tr.now()
		p, err := parse(src)
		tr.add(span{Name: spanParse, Start: start, End: tr.now(), Group: -1, Err: err != nil})
		return p, err
	}
}

// tracedSink wraps the crawler Sink: it times the JSONL encode of each
// record and reconstructs the record's visit span from its Elapsed.
func tracedSink(tr *tracer, sink func(store.SiteRecord)) func(store.SiteRecord) {
	return func(rec store.SiteRecord) {
		start := tr.now()
		if rec.Retries == 0 {
			tr.mu.Lock()
			g, ok := tr.pages[rec.URL]
			tr.mu.Unlock()
			if ok {
				tr.add(span{Name: spanVisit, Parent: tr.root, Start: start - rec.Elapsed, End: start, Group: g})
			}
		}
		sink(rec)
		tr.add(span{Name: spanSink, Parent: tr.root, Start: start, End: tr.now(), Group: -1})
	}
}

// covered is the total length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	curS, curE := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}
