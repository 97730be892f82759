package lru

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a Memo's counters — the one
// stats shape every content-addressed crawl cache reports.
type Stats struct {
	// Hits are lookups answered from a completed entry; Misses are real
	// computations.
	Hits   uint64
	Misses uint64
	// Coalesced are lookups that joined an in-flight computation of the
	// same source and shared its result.
	Coalesced uint64
	// Evictions are entries dropped to keep the memo under its bounds,
	// including an oversized entry that was served but never retained.
	Evictions uint64
	// Entries is the number of distinct sources currently cached;
	// CachedBytes their summed source-byte charge.
	Entries     uint64
	CachedBytes uint64
}

// memoEntry is one slot: done closes once val is set.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
}

// Memo memoizes a pure function of a source string, keyed by the
// source's SHA-256 and charged len(src) bytes. It is what the crawl's
// content-addressed caches (compiled scripts, parsed documents, static
// findings) share: the same third-party widget body recurs across
// thousands of sites and is processed once per crawl.
//
// Concurrent first sights of one source are singleflighted: one caller
// computes while the rest wait and share the result. Values are shared
// by every caller and must be treated as immutable. Errors are cached
// by storing them in V — the same source always fails the same way.
//
// The memo is LRU-bounded by entry count and by summed source bytes
// (either <= 0 = that bound off). Evicting an in-flight entry is
// harmless — its waiters hold the entry pointer; at worst the same
// source is computed twice.
type Memo[V any] struct {
	fn func(src string) V

	mu      sync.Mutex
	entries *Cache[[sha256.Size]byte, *memoEntry[V]]

	hits, misses, coalesced, evictions atomic.Uint64
}

// NewMemo creates an empty memo over fn holding at most maxEntries
// sources and maxBytes summed source bytes (each <= 0 = unbounded).
func NewMemo[V any](maxEntries int, maxBytes int64, fn func(src string) V) *Memo[V] {
	return &Memo[V]{fn: fn, entries: NewWithBytes[[sha256.Size]byte, *memoEntry[V]](maxEntries, maxBytes)}
}

// Get returns fn(src), computing it on first sight.
func (m *Memo[V]) Get(src string) V {
	sum := sha256.Sum256([]byte(src))
	m.mu.Lock()
	if e, ok := m.entries.Get(sum); ok {
		m.mu.Unlock()
		select {
		case <-e.done:
			m.hits.Add(1)
		default:
			// Counted before waiting, so the wait is observable.
			m.coalesced.Add(1)
			<-e.done
		}
		return e.val
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	_, _, evicted := m.entries.AddWithSize(sum, e, int64(len(src)))
	m.mu.Unlock()
	m.evictions.Add(uint64(len(evicted)))
	m.misses.Add(1)
	e.val = m.fn(src)
	close(e.done)
	return e.val
}

// Stats snapshots the counters.
func (m *Memo[V]) Stats() Stats {
	m.mu.Lock()
	entries, bytes := uint64(m.entries.Len()), uint64(m.entries.Bytes())
	m.mu.Unlock()
	return Stats{
		Hits:        m.hits.Load(),
		Misses:      m.misses.Load(),
		Coalesced:   m.coalesced.Load(),
		Evictions:   m.evictions.Load(),
		Entries:     entries,
		CachedBytes: bytes,
	}
}
