package static

import (
	"fmt"
	"testing"
)

// TestCacheMemoizesByContent: the second scan of an identical script is
// a hit, and findings carry each caller's own URL attribution.
func TestCacheMemoizesByContent(t *testing.T) {
	c := NewCache(nil, 0)
	src := "navigator.geolocation.getCurrentPosition(cb);"

	a := c.Analyze(src, "https://cdn-a.test/lib.js")
	b := c.Analyze(src, "https://cdn-b.test/lib.js")
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("geolocation pattern not found")
	}
	if a[0].ScriptURL != "https://cdn-a.test/lib.js" || b[0].ScriptURL != "https://cdn-b.test/lib.js" {
		t.Fatalf("ScriptURL attribution leaked between callers: %q / %q", a[0].ScriptURL, b[0].ScriptURL)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %+v", s)
	}

	// Mutating one caller's findings must not corrupt the shared entry.
	a[0].ScriptURL = "mutated"
	if again := c.Analyze(src, "https://cdn-c.test/lib.js"); again[0].ScriptURL != "https://cdn-c.test/lib.js" {
		t.Fatalf("shared cache entry was mutated: %q", again[0].ScriptURL)
	}
}

// TestCacheCleanScript: scripts with no findings are cached too.
func TestCacheCleanScript(t *testing.T) {
	c := NewCache(nil, 0)
	for i := 0; i < 2; i++ {
		if got := c.Analyze("var a = 1;", "https://x.test/a.js"); got != nil {
			t.Fatalf("clean script produced findings: %v", got)
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss for clean script, got %+v", s)
	}
}

// TestCacheEviction: NewCache's bound reaches the memo. (LRU order and
// eviction accounting are tested in lru.)
func TestCacheEviction(t *testing.T) {
	c := NewCache(nil, 2)
	src := func(i int) string {
		return fmt.Sprintf("var v%d = %d; navigator.geolocation.getCurrentPosition(cb);", i, i)
	}
	for i := 0; i < 3; i++ {
		c.Analyze(src(i), "https://x.test/a.js")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("want 2 entries and 1 eviction, got %+v", s)
	}
}
