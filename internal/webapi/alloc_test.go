package webapi

import (
	"testing"

	"permodyssey/internal/origin"
	"permodyssey/internal/policy"
)

// TestNewRealmAllocs pins the cost of stamping a realm: a constant
// handful of allocations — the realm, its interpreter and the views the
// per-realm patches write to — independent of the surface's size
// (measured at 20). The ceiling leaves margin for compiler changes
// while catching any per-object copying of the surface.
func TestNewRealmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pins need a quiet heap")
	}
	doc := policy.NewTopLevel(origin.MustParse("https://example.org"), policy.Policy{})
	NewRealm(doc, "https://example.org/") // build the shared surface once
	if got := testing.AllocsPerRun(200, func() {
		NewRealm(doc, "https://example.org/")
	}); got > 32 {
		t.Errorf("NewRealm: %.1f allocs/op, want <= 32", got)
	}
}
