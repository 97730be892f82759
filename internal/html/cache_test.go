package html

import (
	"strings"
	"testing"
)

func TestParseCacheHitMiss(t *testing.T) {
	c := NewParseCache(0, 0)
	a := c.Parse(`<iframe src="/a"></iframe>`)
	b := c.Parse(`<iframe src="/a"></iframe>`)
	if a != b {
		t.Error("identical bodies must share one ParsedDoc")
	}
	other := c.Parse(`<iframe src="/b"></iframe>`)
	if other == a {
		t.Error("distinct bodies must not share a ParsedDoc")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats: %+v", s)
	}
	if s.CachedBytes != uint64(len(`<iframe src="/a"></iframe>`)+len(`<iframe src="/b"></iframe>`)) {
		t.Errorf("cached bytes: %d", s.CachedBytes)
	}
}

// TestParseCacheByteBound: NewParseCache's byte bound reaches the memo,
// and an oversized document is still served with its extractions.
func TestParseCacheByteBound(t *testing.T) {
	c := NewParseCache(0, 64)
	c.Parse(`<p>tiny</p>`)
	big := c.Parse(`<div><iframe src="/big"></iframe>` + strings.Repeat("x", 200) + `</div>`)
	if len(big.Iframes) != 1 || big.Iframes[0].Src != "/big" {
		t.Errorf("oversized document must still parse: %+v", big.Iframes)
	}
	s := c.Stats()
	if s.CachedBytes > 64 {
		t.Errorf("byte bound violated: %d cached", s.CachedBytes)
	}
	if s.Evictions == 0 {
		t.Error("oversized insert must evict")
	}
}
