// Package lru provides the least-recently-used bookkeeping the crawl
// caches share. A multi-million-site crawl must keep every cache
// memory-bounded: Cache is the bare structure (not concurrency-safe;
// its owner holds a lock), and Memo builds the content-addressed,
// singleflighted memo every source-keyed cache uses on top of it.
package lru

import "container/list"

// entry is one key/value pair on the recency list, with the byte cost
// the caller charged it via AddWithSize.
type entry[K comparable, V any] struct {
	key   K
	value V
	size  int64
}

// Evicted is one entry displaced by an AddWithSize, reported so the
// caller can release any state tied to it (body interning refcounts,
// counters).
type Evicted[K comparable, V any] struct {
	Key   K
	Value V
	Size  int64
}

// Cache is a size-bounded map with LRU eviction, bounded two ways: by
// entry count (MaxEntries) and by the total byte cost callers charge
// entries through AddWithSize (MaxBytes). Either bound at zero or less
// is off; with both off the cache degenerates to a plain map plus
// recency list. Not safe for concurrent use; callers hold their own
// lock.
type Cache[K comparable, V any] struct {
	// MaxEntries bounds the number of live entries; <= 0 is unbounded.
	MaxEntries int
	// MaxBytes bounds the summed sizes of live entries; <= 0 is
	// unbounded. An entry alone larger than MaxBytes is never retained:
	// it evicts everything else and then itself.
	MaxBytes int64

	order *list.List
	items map[K]*list.Element
	bytes int64
}

// NewWithBytes creates an empty cache bounded to maxEntries and
// maxBytes (each <= 0 = that bound unbounded).
func NewWithBytes[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
		order:      list.New(),
		items:      map[K]*list.Element{},
	}
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Bytes returns the summed byte cost of live entries.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).value, true
	}
	var zero V
	return zero, false
}

// AddWithSize inserts or replaces key charged at size bytes, marking it
// most recently used, then evicts least-recently-used entries until
// both bounds hold again. Overwriting an existing key returns the old
// value with replaced=true (its byte charge is swapped for size);
// every entry evicted to restore the bounds is returned in
// least-recent-first order so the caller can release state tied to
// each. A single entry larger than MaxBytes is itself evicted — served
// to the caller but never retained.
func (c *Cache[K, V]) AddWithSize(key K, value V, size int64) (old V, replaced bool, evicted []Evicted[K, V]) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		old, replaced = e.value, true
		c.bytes += size - e.size
		e.value, e.size = value, size
	} else {
		c.items[key] = c.order.PushFront(&entry[K, V]{key: key, value: value, size: size})
		c.bytes += size
	}
	for (c.MaxEntries > 0 && len(c.items) > c.MaxEntries) ||
		(c.MaxBytes > 0 && c.bytes > c.MaxBytes) {
		ek, ev, es, ok := c.removeOldest()
		if !ok {
			break
		}
		evicted = append(evicted, Evicted[K, V]{Key: ek, Value: ev, Size: es})
	}
	return
}

// removeOldest evicts the least recently used entry.
func (c *Cache[K, V]) removeOldest() (K, V, int64, bool) {
	el := c.order.Back()
	if el == nil {
		var zk K
		var zv V
		return zk, zv, 0, false
	}
	e := el.Value.(*entry[K, V])
	c.order.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	return e.key, e.value, e.size, true
}
