package static

import "permodyssey/internal/lru"

// Cache memoizes Analyzer.Analyze keyed by script content: the same
// third-party widget script is included by thousands of sites, and its
// pattern scan — a walk over the full registry — is identical every
// time. Findings depend on the source alone except for the ScriptURL
// attribution field, so entries are stored URL-less and stamped onto a
// copy per caller. The cache is LRU-bounded (0 = unbounded) and
// singleflighted; see lru.Memo.
type Cache struct {
	memo *lru.Memo[[]Finding]
}

// NewCache wraps analyzer with a findings cache holding at most
// maxEntries distinct script bodies (<= 0 = unbounded). A nil analyzer
// gets a fresh one over the full registry.
func NewCache(analyzer *Analyzer, maxEntries int) *Cache {
	if analyzer == nil {
		analyzer = NewAnalyzer()
	}
	return &Cache{memo: lru.NewMemo(maxEntries, 0, func(src string) []Finding {
		return analyzer.Analyze(src, "")
	})}
}

// Analyze returns the findings for src, scanning it on first sight and
// stamping scriptURL onto a copy of the shared, read-only results.
func (c *Cache) Analyze(src, scriptURL string) []Finding {
	cached := c.memo.Get(src)
	if len(cached) == 0 {
		return nil
	}
	out := make([]Finding, len(cached))
	copy(out, cached)
	for i := range out {
		out[i].ScriptURL = scriptURL
	}
	return out
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() lru.Stats { return c.memo.Stats() }
