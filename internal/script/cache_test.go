package script

import (
	"sync"
	"testing"
)

func TestParseCacheHitMiss(t *testing.T) {
	c := NewParseCache()
	src := "var x = 1 + 2;"
	p1, err := c.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second parse did not return the cached program")
	}
	if _, err := c.Parse("var y = 3;"); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 2 misses, 1 hit, 2 entries", s)
	}
}

func TestParseCacheErrorsCached(t *testing.T) {
	c := NewParseCache()
	src := "var = ;" // syntax error
	_, err1 := c.Parse(src)
	if err1 == nil {
		t.Fatal("expected parse error")
	}
	_, err2 := c.Parse(src)
	if err2 != err1 {
		t.Errorf("error not cached: %v vs %v", err1, err2)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want the failure parsed once", s)
	}
}

// TestParseCacheConcurrent hammers one source from many goroutines,
// each executing the shared program in a private interpreter; under
// -race this proves a cached *Program is safe to share. (The
// singleflight accounting itself is lru.Memo's, tested there.)
func TestParseCacheConcurrent(t *testing.T) {
	c := NewParseCache()
	src := `function f(n) { var total = 0; for (var i = 0; i < n; i++) { total += i; } return total; } f(10);`
	const goroutines = 32

	var wg sync.WaitGroup
	progs := make([]*Program, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Parse(src)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
			// Execute the shared program in a private interpreter, the
			// way concurrent crawl workers share one parsed widget script.
			cp, err := Compile(p)
			if err != nil {
				t.Error(err)
				return
			}
			if err := NewInterp().RunCompiled(cp, "https://cdn.example/lib.js"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatal("goroutines saw different programs for one source")
		}
	}
}
