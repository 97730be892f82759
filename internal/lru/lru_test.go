package lru

import "testing"

// add inserts at zero byte cost and reports the single entry a
// MaxEntries overflow displaced, if any.
func add[K comparable, V any](c *Cache[K, V], key K, value V) (old V, replaced bool, evictedKey K, evicted bool) {
	old, replaced, evs := c.AddWithSize(key, value, 0)
	if len(evs) > 0 {
		evictedKey, evicted = evs[0].Key, true
	}
	return
}

func TestBasicAddGet(t *testing.T) {
	c := NewWithBytes[string, int](0, 0)
	add(c, "a", 1)
	add(c, "b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) must miss")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewWithBytes[string, int](2, 0)
	add(c, "a", 1)
	add(c, "b", 2)
	// Touch a so b is the LRU entry.
	c.Get("a")
	_, _, evs := c.AddWithSize("c", 3, 0)
	if len(evs) != 1 || evs[0].Key != "b" || evs[0].Value != 2 {
		t.Fatalf("evicted %+v, want b=2", evs)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b must be gone")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a must survive")
	}
}

// TestReplaceReturnsOldValue: overwriting a live key must hand the
// displaced value back, so callers tracking per-value state (interned
// body refcounts) can release it — silently dropping it leaks.
func TestReplaceReturnsOldValue(t *testing.T) {
	c := NewWithBytes[string, int](2, 0)
	add(c, "a", 1)
	add(c, "b", 2)
	old, replaced, _, evicted := add(c, "a", 10)
	if evicted {
		t.Fatal("replacing a live key must not evict")
	}
	if !replaced || old != 1 {
		t.Fatalf("replace reported old=%d replaced=%v, want 1, true", old, replaced)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (replace keeps the entry count)", c.Len())
	}
	// A fresh insert must not claim a replace happened.
	if _, replaced, _, _ := add(c, "c", 3); replaced {
		t.Fatal("fresh insert must not report replaced")
	}
}

// TestReplaceRefreshesRecency: a replace counts as a use — the
// replaced key must become the most recently used entry.
func TestReplaceRefreshesRecency(t *testing.T) {
	c := NewWithBytes[string, int](2, 0)
	add(c, "a", 1)
	add(c, "b", 2)
	add(c, "a", 10) // a is now most recent; b is the LRU entry
	if _, _, k, evicted := add(c, "c", 3); !evicted || k != "b" {
		t.Fatalf("evicted %q (%v), want b", k, evicted)
	}
}

// TestUnboundedNeverEvicts: with both bounds off the cache is a plain
// map plus recency list.
func TestUnboundedNeverEvicts(t *testing.T) {
	c := NewWithBytes[int, int](0, 0)
	for i := 0; i < 1000; i++ {
		if _, _, evs := c.AddWithSize(i, i, 1<<20); len(evs) != 0 {
			t.Fatal("unbounded cache must never evict")
		}
	}
	if c.Len() != 1000 || c.Bytes() != 1000<<20 {
		t.Fatalf("Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
}

// TestByteBudgetEviction: the byte bound evicts LRU entries until the
// budget holds again, reporting every one with its charged size.
func TestByteBudgetEviction(t *testing.T) {
	c := NewWithBytes[string, string](0, 100)
	c.AddWithSize("a", "A", 40)
	c.AddWithSize("b", "B", 40)
	if c.Bytes() != 80 {
		t.Fatalf("Bytes = %d, want 80", c.Bytes())
	}
	// 70 more bytes must push out both a and b: 150 over budget, still
	// 110 after a alone goes.
	_, _, evicted := c.AddWithSize("c", "C", 70)
	if len(evicted) != 2 || evicted[0].Key != "a" || evicted[1].Key != "b" {
		t.Fatalf("evicted %+v, want a then b", evicted)
	}
	if evicted[0].Size != 40 || evicted[1].Size != 40 {
		t.Fatalf("evicted sizes %+v, want 40 each", evicted)
	}
	if c.Len() != 1 || c.Bytes() != 70 {
		t.Fatalf("Len=%d Bytes=%d, want 1/70", c.Len(), c.Bytes())
	}
}

// TestByteBudgetOversizedEntry: a single entry larger than the whole
// budget cannot be retained — it evicts everything including itself.
func TestByteBudgetOversizedEntry(t *testing.T) {
	c := NewWithBytes[string, string](0, 100)
	c.AddWithSize("a", "A", 30)
	_, _, evicted := c.AddWithSize("huge", "H", 500)
	if len(evicted) != 2 || evicted[1].Key != "huge" {
		t.Fatalf("evicted %+v, want a then huge itself", evicted)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d, want empty", c.Len(), c.Bytes())
	}
}

// TestByteBudgetReplaceSwapsCharge: overwriting a key swaps its byte
// charge rather than double-counting, and eviction refunds it.
func TestByteBudgetReplaceSwapsCharge(t *testing.T) {
	c := NewWithBytes[string, string](0, 100)
	c.AddWithSize("a", "A", 30)
	old, replaced, evicted := c.AddWithSize("a", "A2", 70)
	if !replaced || old != "A" || len(evicted) != 0 {
		t.Fatalf("replace: old=%q replaced=%v evicted=%+v", old, replaced, evicted)
	}
	if c.Bytes() != 70 {
		t.Fatalf("Bytes = %d, want 70 (charge swapped, not summed)", c.Bytes())
	}
	// 40 more bytes overflow the budget and push out a's 70.
	if _, _, ev := c.AddWithSize("b", "B", 40); len(ev) != 1 || ev[0].Size != 70 || c.Bytes() != 40 {
		t.Fatalf("evicting a: evicted %+v, Bytes = %d, want a at 70 and 40 left", ev, c.Bytes())
	}
}

// TestByteBudgetWithEntryBound: both bounds apply together — whichever
// trips first evicts.
func TestByteBudgetWithEntryBound(t *testing.T) {
	c := NewWithBytes[string, int](2, 100)
	c.AddWithSize("a", 1, 10)
	c.AddWithSize("b", 2, 10)
	if _, _, ev := c.AddWithSize("c", 3, 10); len(ev) != 1 || ev[0].Key != "a" {
		t.Fatalf("entry bound: evicted %+v, want a", ev)
	}
	if _, _, ev := c.AddWithSize("d", 4, 95); len(ev) != 2 {
		t.Fatalf("byte bound: evicted %+v, want b and c", ev)
	}
}
