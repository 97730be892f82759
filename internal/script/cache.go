package script

import "permodyssey/internal/lru"

// result pairs a cached value with its error: failures are memoized
// too, since the same source always fails the same way.
type result[T any] struct {
	val T
	err error
}

// ParseCache memoizes Parse keyed by source content, so each distinct
// script body is parsed once per cache. Programs are immutable after
// parsing (per-realm state lives in environments and closures), so a
// cached *Program is safe to share across realms. The cache is
// LRU-bounded (0 = unbounded) and singleflighted; see lru.Memo.
type ParseCache struct {
	memo *lru.Memo[result[*Program]]
}

// NewParseCache creates an empty, unbounded cache; use
// NewBoundedParseCache to cap it.
func NewParseCache() *ParseCache {
	return NewBoundedParseCache(0)
}

// NewBoundedParseCache creates a cache holding at most maxEntries
// distinct sources (<= 0 = unbounded), evicted least-recently-used.
func NewBoundedParseCache(maxEntries int) *ParseCache {
	return &ParseCache{memo: lru.NewMemo(maxEntries, 0, func(src string) result[*Program] {
		prog, err := Parse(src)
		return result[*Program]{prog, err}
	})}
}

// Parse returns the cached program for src, parsing it on first sight.
func (c *ParseCache) Parse(src string) (*Program, error) {
	r := c.memo.Get(src)
	return r.val, r.err
}

// Stats snapshots the cache counters.
func (c *ParseCache) Stats() lru.Stats { return c.memo.Stats() }

// CompileCache memoizes Compile keyed by source content, so a shared
// third-party script body — included by thousands of sites — is parsed
// and lowered once per crawl. Compiled programs are immutable — every
// per-run mutable structure (frames, closures, this bindings) is
// allocated at execution time — so one cached *Compiled is safe to run
// concurrently from many realms. The cache is LRU-bounded
// (0 = unbounded) and singleflighted; see lru.Memo.
type CompileCache struct {
	memo *lru.Memo[result[*Compiled]]
}

// NewCompileCache creates an empty, unbounded cache parsing with the
// package Parse; use NewBoundedCompileCache to cap it.
func NewCompileCache() *CompileCache {
	return NewBoundedCompileCache(0, nil)
}

// NewBoundedCompileCache creates a cache holding at most maxEntries
// distinct sources (<= 0 = unbounded), evicted least-recently-used.
// parse supplies the program for a source; nil means the package Parse.
// A compile miss is always a parse miss for the same source, so a
// caching parse function only adds retained ASTs.
func NewBoundedCompileCache(maxEntries int, parse func(string) (*Program, error)) *CompileCache {
	if parse == nil {
		parse = Parse
	}
	return &CompileCache{memo: lru.NewMemo(maxEntries, 0, func(src string) result[*Compiled] {
		prog, err := parse(src)
		if err != nil {
			return result[*Compiled]{nil, err}
		}
		c, err := Compile(prog)
		return result[*Compiled]{c, err}
	})}
}

// Compile returns the cached compiled program for src, parsing and
// lowering it on first sight.
func (c *CompileCache) Compile(src string) (*Compiled, error) {
	r := c.memo.Get(src)
	return r.val, r.err
}

// Stats snapshots the cache counters.
func (c *CompileCache) Stats() lru.Stats { return c.memo.Stats() }
