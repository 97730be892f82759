package lru

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countingMemo wraps strings.ToUpper, counting real computations.
func countingMemo(maxEntries int, maxBytes int64) (*Memo[string], *atomic.Int64) {
	var calls atomic.Int64
	return NewMemo(maxEntries, maxBytes, func(src string) string {
		calls.Add(1)
		return strings.ToUpper(src)
	}), &calls
}

func TestMemoHitMiss(t *testing.T) {
	m, calls := countingMemo(0, 0)
	for _, src := range []string{"a", "bb", "a", "a", "bb"} {
		if got := m.Get(src); got != strings.ToUpper(src) {
			t.Fatalf("Get(%q) = %q", src, got)
		}
	}
	want := Stats{Hits: 3, Misses: 2, Entries: 2, CachedBytes: 3}
	if s := m.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
	if calls.Load() != 2 {
		t.Errorf("fn ran %d times, want once per distinct source", calls.Load())
	}
}

// TestMemoSingleflight: N concurrent first sights of one source run fn
// exactly once; every other caller coalesces onto the leader and shares
// its value. Run under -race.
func TestMemoSingleflight(t *testing.T) {
	const n = 16
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int64
	m := NewMemo(0, 0, func(src string) *string {
		calls.Add(1)
		close(started)
		<-release
		return &src
	})
	results := make([]*string, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = m.Get("shared") }()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i] = m.Get("shared") }(i)
	}
	// Every waiter is counted as it starts waiting on the leader.
	for m.Stats().Coalesced < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	for i := range results {
		if results[i] != results[0] {
			t.Fatal("concurrent callers must share the leader's value")
		}
	}
	want := Stats{Misses: 1, Coalesced: n - 1, Entries: 1, CachedBytes: uint64(len("shared"))}
	if s := m.Stats(); s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

func TestMemoBounds(t *testing.T) {
	// Entry bound: the least recently used source goes first.
	m, calls := countingMemo(2, 0)
	m.Get("a")
	m.Get("b")
	m.Get("a") // b is now the LRU entry
	m.Get("c") // evicts b
	if s := m.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("entry bound: %+v", s)
	}
	before := calls.Load()
	m.Get("a")
	if calls.Load() != before {
		t.Error("a must have survived the eviction")
	}
	m.Get("b")
	if calls.Load() != before+1 {
		t.Error("b must have been evicted and recomputed")
	}

	// Byte bound: each source is charged its length.
	m, _ = countingMemo(0, 10)
	m.Get("aaaa")
	m.Get("bbbb")
	m.Get("cccc") // 12 bytes > 10: evicts aaaa
	s := m.Stats()
	if s.Entries != 2 || s.CachedBytes != 8 || s.Evictions != 1 {
		t.Fatalf("byte bound: %+v", s)
	}
}

// TestMemoOversizedEntry: a source alone larger than the byte budget is
// computed and served, but never retained.
func TestMemoOversizedEntry(t *testing.T) {
	m, calls := countingMemo(0, 10)
	m.Get("small")
	big := strings.Repeat("x", 64)
	for i := 0; i < 2; i++ {
		if got := m.Get(big); got != strings.ToUpper(big) {
			t.Fatalf("oversized source not served: %q", got)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("fn ran %d times, want 3 (the oversized source is recomputed)", calls.Load())
	}
	// Each oversized insert evicts everything, itself included.
	s := m.Stats()
	if s.Entries != 0 || s.CachedBytes != 0 || s.Evictions != 3 {
		t.Errorf("stats = %+v, want empty after 3 evictions", s)
	}
}

// TestMemoCachesErrors: a failure stored in V is cached like any value.
func TestMemoCachesErrors(t *testing.T) {
	type result struct {
		n   int
		err error
	}
	errBad := errors.New("bad source")
	var calls atomic.Int64
	m := NewMemo(0, 0, func(src string) result {
		calls.Add(1)
		if src == "bad" {
			return result{err: errBad}
		}
		return result{n: len(src)}
	})
	for i := 0; i < 3; i++ {
		if r := m.Get("bad"); !errors.Is(r.err, errBad) {
			t.Fatalf("Get(bad) = %+v, want the cached error", r)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1 (failures are cached)", calls.Load())
	}
	if s := m.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}
