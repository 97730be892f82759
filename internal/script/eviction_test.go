package script

import (
	"fmt"
	"testing"
)

// TestParseCacheEviction: NewBoundedParseCache's bound reaches the
// memo. (LRU order and eviction accounting are tested in lru.)
func TestParseCacheEviction(t *testing.T) {
	c := NewBoundedParseCache(2)
	src := func(i int) string { return fmt.Sprintf("var x%d = %d;", i, i) }

	for i := 0; i < 3; i++ {
		if _, err := c.Parse(src(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("want 2 entries and 1 eviction, got %+v", s)
	}

}
