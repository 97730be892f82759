package html

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// extractCorpus is the shared set of documents the single-walk
// extraction must agree on with the three-walk wrappers — tag soup,
// raw text, self-closing frames, every edge the wrappers tolerate.
var extractCorpus = []string{
	"",
	"plain text only",
	`<!DOCTYPE html><html><head><title>Hi</title></head><body><p>x</p></body></html>`,
	`<iframe id="chat" name="lc" class="widget corner" src="https://widget.example/embed"
	  allow="clipboard-read; microphone *; camera *" loading="lazy"></iframe>
	 <iframe srcdoc="&lt;p&gt;local&lt;/p&gt;" allow=""></iframe>
	 <iframe src="about:blank" sandbox></iframe>`,
	`<script src="https://cdn.example/lib.js"></script><script>inline()</script>`,
	`<script src="  "></script>`, // whitespace src: inline, not external
	`<script>   </script>`,       // whitespace body collapses to ""
	`<script/>`,
	`<SCRIPT>var x = 1;</ScRiPt><div id="d"></div>`,
	`<script>if (a < b && x > y) { q("<iframe src='https://x.example'></iframe>"); }</script><p>after</p>`,
	`<script>never closed`,
	`<a href="/stores">Stores</a><a href="https://other.example/x">External</a><a>no href</a><a href="  /spaced  ">spaced</a>`,
	`<div><iframe src="/a"/><p>after</p></div>`,
	`<div><span>text</div></span><p>tail</p>`,
	`<div><p>unclosed`,
	`</stray><div></div>`,
	`<div attr=<<>>`,
	`<`,
	`<div a='x`,
	`<!-- unterminated comment`,
	`<div>a<b>c</div>d</b>`,
	`<noscript><a href="/hidden">x</a><iframe src="/h"></iframe></noscript><a href="/seen">y</a>`,
	`<title>a < b</title><iframe src="/t"></iframe>`,
	`<IFRAME SRC="/UP" ALLOW="camera"></IFRAME>`,
	`<div><iframe src="/outer"><iframe src="/inner"></iframe></iframe></div>`,
}

// TestParseDocMatchesWrappers pins the tentpole's core equivalence: the
// single-walk extraction built during parsing must agree exactly with
// the three FindAll-walk wrapper functions over the same tree.
func TestParseDocMatchesWrappers(t *testing.T) {
	for i, src := range extractCorpus {
		tree := Parse(src)
		wantIframes := Iframes(tree)
		wantScripts := Scripts(tree)
		wantLinks := Links(tree)

		pd := ParseDoc(src)
		if !reflect.DeepEqual(pd.Iframes, wantIframes) {
			t.Errorf("case %d: iframes differ\n single-walk: %+v\n wrappers:    %+v", i, pd.Iframes, wantIframes)
		}
		if !reflect.DeepEqual(pd.Scripts, wantScripts) {
			t.Errorf("case %d: scripts differ\n single-walk: %+v\n wrappers:    %+v", i, pd.Scripts, wantScripts)
		}
		if !reflect.DeepEqual(pd.Links, wantLinks) {
			t.Errorf("case %d: links differ\n single-walk: %v\n wrappers:    %v", i, pd.Links, wantLinks)
		}
	}
}

// TestArenaRecycling: every ParseDoc releases its arena, so repeated
// parses reuse the same pooled chunks — and the extractions must stay
// correct as they do.
func TestArenaRecycling(t *testing.T) {
	src := `<div><iframe src="/a" allow="camera"></iframe><script>s()</script><a href="/l">x</a></div>`
	for i := 0; i < 100; i++ {
		pd := ParseDoc(src)
		if len(pd.Iframes) != 1 || pd.Iframes[0].Src != "/a" {
			t.Fatalf("iteration %d: iframes %+v", i, pd.Iframes)
		}
		if len(pd.Scripts) != 1 || pd.Scripts[0].Body != "s()" || len(pd.Links) != 1 || pd.Links[0] != "/l" {
			t.Fatalf("iteration %d: scripts %+v, links %v", i, pd.Scripts, pd.Links)
		}
	}
}

// TestParseDocSurvivesArenaReuse pins the arena invariant: ParseDoc
// releases its arena before returning, so nothing in a ParsedDoc may
// alias arena memory. Hold document A while many goroutines parse
// other documents — recycling A's chunks — and read A concurrently;
// under -race any aliasing shows as a race, and A's extractions must
// still equal the wrapper oracle over a GC-owned Parse(A).
func TestParseDocSurvivesArenaReuse(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 120; i++ { // several node, attr and child chunks
		fmt.Fprintf(&sb, `<div class="row r%d"><iframe id="f%d" src="/f%d?a=1&amp;b=2" allow="camera; geolocation" sandbox></iframe><script>go%d()</script><script src=" /s%d.js "></script><a href="/l%d">x</a></div>`, i, i, i, i, i, i)
	}
	srcA := sb.String()
	a := ParseDoc(srcA)
	oracle := Parse(srcA)
	wantIframes, wantScripts, wantLinks := Iframes(oracle), Scripts(oracle), Links(oracle)
	check := func() bool {
		return reflect.DeepEqual(a.Iframes, wantIframes) &&
			reflect.DeepEqual(a.Scripts, wantScripts) &&
			reflect.DeepEqual(a.Links, wantLinks)
	}
	if !check() {
		t.Fatal("ParseDoc(A) disagrees with the wrappers before any reuse")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				other := extractCorpus[(g+i)%len(extractCorpus)] +
					fmt.Sprintf(`<iframe src="/churn%d-%d" allow="microphone"></iframe>`, g, i) +
					strings.Repeat(`<p class="x">overwrite</p>`, 300)
				ParseDoc(other)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !check() {
					t.Error("ParseDoc(A) changed while its arena chunks were reused")
					return
				}
			}
		}()
	}
	wg.Wait()
	if !check() {
		t.Error("ParseDoc(A) changed after its arena chunks were reused")
	}
}

// TestParsedDocImmutableUnderConcurrency is the immutability audit: a
// shared ParsedDoc walked and extracted by many goroutines at once must
// never race (the -race CI run enforces it) and must read identically
// throughout.
func TestParsedDocImmutableUnderConcurrency(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, `<div class="row"><iframe src="/f%d" allow="camera"></iframe><script>go%d()</script><a href="/l%d">x</a></div>`, i, i, i)
	}
	src := sb.String()
	pd := ParseDoc(src)
	want := Iframes(Parse(src))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !reflect.DeepEqual(pd.Iframes, want) {
					t.Error("concurrent read saw different iframes")
					return
				}
				if len(pd.Scripts) != 40 || len(pd.Links) != 40 {
					t.Error("extractions changed under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}
