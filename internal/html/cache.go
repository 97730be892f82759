package html

import "permodyssey/internal/lru"

// ParsedDoc is one parsed document reduced to the three extractions the
// crawler needs, collected in a single pass during tree construction.
// It holds plain strings and structs only, so it stays valid forever
// and may be shared concurrently by many frames and crawl workers —
// nothing in it may be mutated.
type ParsedDoc struct {
	Iframes []Iframe
	Scripts []Script
	Links   []string
}

// ParseDoc parses src into a pooled arena, takes the iframe, script,
// and link extractions built during the same walk, and returns the
// arena to the pools before returning: no tree outlives the call.
func ParseDoc(src string) *ParsedDoc {
	a := newArena()
	defer a.release()
	var ex docExtract
	parseInto(src, a, &ex)
	d := &ParsedDoc{Links: ex.links}
	if len(ex.iframes) > 0 {
		d.Iframes = make([]Iframe, 0, len(ex.iframes))
		for _, el := range ex.iframes {
			d.Iframes = append(d.Iframes, iframeOf(el))
		}
	}
	if len(ex.scripts) > 0 {
		d.Scripts = make([]Script, 0, len(ex.scripts))
		for _, el := range ex.scripts {
			d.Scripts = append(d.Scripts, scriptOf(el))
		}
	}
	return d
}

// ParseCache memoizes ParseDoc keyed by document content, so a body
// fetched N times across a crawl — the Zipf-popular third-party widget
// documents embedded by thousands of sites — is tokenized exactly once
// and every frame shares the immutable result. The cache is bounded by
// entry count and by summed source bytes (either <= 0 = that bound
// off), evicted least-recently-used, and singleflighted; see lru.Memo.
type ParseCache struct {
	memo *lru.Memo[*ParsedDoc]
}

// NewParseCache creates an empty cache holding at most maxEntries
// documents and maxBytes summed source bytes (each <= 0 = unbounded).
func NewParseCache(maxEntries int, maxBytes int64) *ParseCache {
	return &ParseCache{memo: lru.NewMemo(maxEntries, maxBytes, ParseDoc)}
}

// Parse returns the parsed document for src, parsing on first sight.
func (c *ParseCache) Parse(src string) *ParsedDoc { return c.memo.Get(src) }

// Stats snapshots the cache counters.
func (c *ParseCache) Stats() lru.Stats { return c.memo.Stats() }
