package policy

import "testing"

// allocHeader and allocAllow are a typical top-level header and iframe
// allow attribute with no explicit origins: keywords only, so allowlist
// matching never parses an origin.
const (
	allocHeader = "camera=(self), microphone=(), geolocation=*, ch-ua=*, interest-cohort=()"
	allocAllow  = "camera; microphone *; fullscreen; autoplay 'src'"
)

// Allocation pins for the inheritance pass. Building a document costs
// its one Document; asking it about a feature costs nothing. A
// per-document map or registry copy blows well past these.
func TestPolicyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins need a quiet heap")
	}
	declared := mustPP(t, allocHeader)
	allow := mustAllow(allocAllow)
	child := mustPP(t, "camera=*, fullscreen=(self)")
	top := NewTopLevel(exampleOrg, declared)
	spec := FrameSpec{SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: allow, Declared: child}
	frame := NewSubframe(top, spec, SpecActual)

	if got := testing.AllocsPerRun(500, func() {
		NewTopLevel(exampleOrg, declared)
	}); got > 1 {
		t.Errorf("NewTopLevel: %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(500, func() {
		NewSubframe(top, spec, SpecActual)
	}); got > 1 {
		t.Errorf("NewSubframe: %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(500, func() {
		NewSubframe(frame, FrameSpec{LocalScheme: true, Allow: allow}, SpecExpected)
	}); got > 1 {
		t.Errorf("NewSubframe (local scheme): %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(500, func() {
		for _, d := range []*Document{top, frame} {
			_ = d.Allowed("camera")
			_ = d.Allowed("notifications")
			_ = d.Allowed("made-up")
			_ = d.EnabledForOrigin("fullscreen", attacker)
			_ = d.EnabledForOrigin("camera", exampleOrg)
		}
	}); got != 0 {
		t.Errorf("Allowed/EnabledForOrigin: %.1f allocs/op, want 0", got)
	}
}

// BenchmarkNewSubframe builds a three-frame chain — a top level with a
// header, a cross-origin frame delegated by an allow attribute, and a
// nested third-party frame — and queries the innermost document once.
func BenchmarkNewSubframe(b *testing.B) {
	declared, _, err := ParsePermissionsPolicy(allocHeader)
	if err != nil {
		b.Fatal(err)
	}
	allow := mustAllow(allocAllow)
	child := FrameSpec{SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: allow}
	nested := FrameSpec{SrcOrigin: attacker, DocumentOrigin: attacker, Allow: allow}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top := NewTopLevel(exampleOrg, declared)
		frame := NewSubframe(top, child, SpecActual)
		if NewSubframe(frame, nested, SpecActual).Allowed("geolocation") {
			b.Fatal("geolocation reached a nested third party without delegation")
		}
	}
}
