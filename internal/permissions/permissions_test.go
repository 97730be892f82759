package permissions

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTable2Characteristics(t *testing.T) {
	// Paper Table 2: Example of Permissions Characteristics.
	tests := []struct {
		name             string
		powerful         bool
		policyControlled bool
		def              string
	}{
		{"camera", true, true, "self"},
		{"geolocation", true, true, "self"},
		{"gamepad", false, true, "*"},
		{"notifications", true, false, "N/A"},
		{"push", true, false, "N/A"},
	}
	for _, tt := range tests {
		p, ok := Lookup(tt.name)
		if !ok {
			t.Fatalf("Lookup(%q): not registered", tt.name)
		}
		if p.Powerful != tt.powerful {
			t.Errorf("%s: Powerful = %v; want %v", tt.name, p.Powerful, tt.powerful)
		}
		if p.PolicyControlled() != tt.policyControlled {
			t.Errorf("%s: PolicyControlled = %v; want %v", tt.name, p.PolicyControlled(), tt.policyControlled)
		}
		if got := p.Default.String(); got != tt.def {
			t.Errorf("%s: Default = %q; want %q", tt.name, got, tt.def)
		}
	}
}

func TestAppendixA4Coverage(t *testing.T) {
	// Every permission listed in Appendix A.4 must be registered.
	a4 := []string{
		"accelerometer", "ambient-light-sensor", "battery", "bluetooth",
		"browsing-topics", "camera", "clipboard-read", "clipboard-write",
		"compute-pressure", "direct-sockets", "display-capture",
		"encrypted-media", "gamepad", "geolocation", "gyroscope", "hid",
		"idle-detection", "keyboard-lock", "keyboard-map", "local-fonts",
		"magnetometer", "microphone", "midi", "notifications", "payment",
		"pointer-lock", "publickey-credentials-create",
		"publickey-credentials-get", "push", "screen-wake-lock", "serial",
		"speaker-selection", "storage-access", "system-wake-lock",
		"top-level-storage-access", "usb", "web-share",
		"window-management", "xr-spatial-tracking",
	}
	for _, name := range a4 {
		if !Known(name) {
			t.Errorf("Appendix A.4 permission %q not registered", name)
		}
	}
}

func TestLookupNormalization(t *testing.T) {
	if _, ok := Lookup(" Camera "); !ok {
		t.Error("Lookup should normalize case and whitespace")
	}
	if Known("no-such-permission") {
		t.Error("unknown token must not be Known")
	}
}

func TestDisplayNames(t *testing.T) {
	tests := map[string]string{
		"browsing-topics":           "Browsing Topics",
		"publickey-credentials-get": "Public Key Credentials Get",
		"battery":                   "Battery",
		"usb":                       "USB",
		"midi":                      "MIDI",
		"keyboard-map":              "keyboard-map",
		"encrypted-media":           "Encrypted Media",
	}
	for name, want := range tests {
		p, _ := Lookup(name)
		if p.DisplayName != want {
			t.Errorf("%s: DisplayName = %q; want %q", name, p.DisplayName, want)
		}
	}
}

func TestRegistryInvariants(t *testing.T) {
	all := All()
	if len(all) < 49 {
		t.Fatalf("registry too small: %d entries", len(all))
	}
	for _, p := range all {
		if p.Name == "" || p.DisplayName == "" {
			t.Errorf("permission %+v missing names", p)
		}
		if p.Name != strings.ToLower(p.Name) {
			t.Errorf("%s: names must be lower-case tokens", p.Name)
		}
		if len(p.APIs) == 0 {
			t.Errorf("%s: no API patterns", p.Name)
		}
		if !p.PolicyControlled() && p.Default != DefaultNone {
			t.Errorf("%s: inconsistent policy-control flags", p.Name)
		}
	}
	// Policy-controlled and not are both present.
	if len(PolicyControlledNames()) == 0 || len(PolicyControlledNames()) == len(all) {
		t.Error("expected a mix of policy-controlled and uncontrolled permissions")
	}
	if len(PowerfulNames()) == 0 {
		t.Error("expected powerful permissions")
	}
}

func TestByQueryName(t *testing.T) {
	p, ok := ByQueryName("camera")
	if !ok || p.Name != "camera" {
		t.Errorf("ByQueryName(camera) = %v, %v", p, ok)
	}
	p, ok = ByQueryName("payment-handler")
	if !ok || p.Name != "payment" {
		t.Errorf("ByQueryName(payment-handler) = %v, %v", p, ok)
	}
	if _, ok := ByQueryName("nonexistent"); ok {
		t.Error("unknown query name resolved")
	}
}

func TestSupportMatrix(t *testing.T) {
	// §2.2.6: only Chromium supports the Permissions-Policy header.
	if !Headers[Chromium].PermissionsPolicy {
		t.Error("Chromium must support the Permissions-Policy header")
	}
	if Headers[Firefox].PermissionsPolicy || Headers[Safari].PermissionsPolicy {
		t.Error("Firefox/Safari must not support the Permissions-Policy header")
	}
	for _, b := range Browsers {
		if !Headers[b].AllowAttribute {
			t.Errorf("%s: all major browsers partly support the allow attribute", b)
		}
	}
	// Chromium still enforces Feature-Policy as fallback.
	if !Headers[Chromium].FeaturePolicy {
		t.Error("Chromium enforces the deprecated Feature-Policy header")
	}
	// Spot checks.
	if !SupportedIn("camera", Chromium, 127) {
		t.Error("camera supported in Chromium 127")
	}
	if SupportedIn("camera", Chromium, 10) {
		t.Error("camera not supported in Chromium 10")
	}
	if SupportedIn("browsing-topics", Firefox, 130) {
		t.Error("Topics rejected by Mozilla (§4.1.1)")
	}
	if SupportedIn("interest-cohort", Chromium, 120) {
		t.Error("FLoC removed in Chromium 115")
	}
	if !SupportedIn("interest-cohort", Chromium, 100) {
		t.Error("FLoC was supported in Chromium 100")
	}
}

func TestSupportedPermissionsMonotonicity(t *testing.T) {
	// More permissions become available with newer versions (removal of
	// FLoC is the only exception; compare pre-FLoC versions).
	older := len(SupportedPermissions(Chromium, 60))
	newer := len(SupportedPermissions(Chromium, 88))
	if newer <= older {
		t.Errorf("support surface should grow: v60=%d v88=%d", older, newer)
	}
}

func TestChangesBetween(t *testing.T) {
	changes := ChangesBetween(Chromium, 88, 90)
	foundFloc := false
	for _, c := range changes {
		if c.Permission == "interest-cohort" && c.Kind == "added" && c.Version == 89 {
			foundFloc = true
		}
		if c.Version <= 88 || c.Version > 90 {
			t.Errorf("change outside window: %v", c)
		}
	}
	if !foundFloc {
		t.Error("expected interest-cohort addition at Chromium 89")
	}
	removal := ChangesBetween(Chromium, 114, 115)
	foundRemoval := false
	for _, c := range removal {
		if c.Permission == "interest-cohort" && c.Kind == "removed" {
			foundRemoval = true
		}
	}
	if !foundRemoval {
		t.Error("expected interest-cohort removal at Chromium 115")
	}
}

func TestFingerprintSurfaceDistinguishesVersions(t *testing.T) {
	// §4.1.1: permission lists can fingerprint browsers and versions.
	a := FingerprintSurface(Chromium, 100)
	b := FingerprintSurface(Chromium, 127)
	if len(a) == len(b) {
		t.Error("Chromium 100 and 127 should expose different surfaces")
	}
	c := FingerprintSurface(Firefox, 127)
	if len(c) >= len(b) {
		t.Error("Firefox surface should be smaller than Chromium's")
	}
}

func TestGeneralAPIs(t *testing.T) {
	g, ok := IsGeneralAPI("navigator.permissions.query")
	if !ok || !g.StatusCheck {
		t.Error("navigator.permissions.query is a status-checking general API")
	}
	g, ok = IsGeneralAPI("document.featurePolicy.allowedFeatures")
	if !ok || !g.Deprecated {
		t.Error("featurePolicy API is deprecated Feature Policy")
	}
	if _, ok := IsGeneralAPI("navigator.getBattery"); ok {
		t.Error("battery API is permission-specific, not general")
	}
	// Both deprecated and current names present (§6.2).
	var dep, cur int
	for _, g := range GeneralAPIs {
		if g.Deprecated {
			dep++
		} else {
			cur++
		}
	}
	if dep == 0 || cur == 0 {
		t.Error("need both Feature-Policy and Permissions-Policy API names")
	}
}

// TestIndexIsRegistrationOrder: dense indexes follow All() and match
// names exactly, unlike Lookup.
func TestIndexIsRegistrationOrder(t *testing.T) {
	for want, p := range All() {
		if i, ok := Index(p.Name); !ok || i != want {
			t.Errorf("Index(%q) = %d, %v; want %d", p.Name, i, ok, want)
		}
	}
	for _, name := range []string{"Camera", " camera", "made-up", ""} {
		if _, ok := Index(name); ok {
			t.Errorf("Index(%q) resolved; only exact registry names do", name)
		}
	}
	if _, ok := Lookup(" Camera "); !ok {
		t.Error("Lookup folds case and trims")
	}
}

func TestSetOps(t *testing.T) {
	var s Set
	for _, i := range []int{0, 5, 63, 64, maxPermissions - 1} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("Add(%d) then Has = false", i)
		}
	}
	s.Remove(5)
	if s.Has(5) || !s.Has(63) {
		t.Error("Remove(5) changed the wrong bits")
	}
	var t2 Set
	t2.Add(0)
	t2.Add(7)
	if got := s.And(t2); !got.Has(0) || got.Has(7) || got.Has(63) {
		t.Errorf("And = %v", got)
	}
	if got := s.Or(t2); !got.Has(7) || !got.Has(64) {
		t.Errorf("Or = %v", got)
	}
	if got := s.AndNot(t2); got.Has(0) || !got.Has(63) {
		t.Errorf("AndNot = %v", got)
	}

	powerful := SetOf(func(p Permission) bool { return p.Powerful })
	var want []string
	for _, p := range All() {
		if p.Powerful {
			want = append(want, p.Name)
		}
	}
	if got := powerful.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("SetOf(powerful).Names() = %v; want registry order %v", got, want)
	}
	if (Set{}).Names() != nil {
		t.Error("the empty set names nothing")
	}
}

// TestSupportedSetMatchesPermissions: the memoized surface agrees with
// the sorted list, and callers cannot corrupt it through the copy they
// get.
func TestSupportedSetMatchesPermissions(t *testing.T) {
	for _, b := range Browsers {
		for _, v := range []int{60, 100, 127} {
			names := SupportedPermissions(b, v)
			set := SupportedSet(b, v)
			n := 0
			for _, name := range names {
				if i, ok := Index(name); ok {
					n++
					if !set.Has(i) {
						t.Errorf("%s %d: %s listed but not in the set", b, v, name)
					}
				}
			}
			if got := len(set.Names()); got != n {
				t.Errorf("%s %d: set holds %d permissions; list has %d registered", b, v, got, n)
			}
			if len(names) > 0 {
				names[0] = "clobbered"
				if SupportedPermissions(b, v)[0] == "clobbered" {
					t.Fatalf("%s %d: SupportedPermissions shares its backing array", b, v)
				}
			}
		}
	}
}

// TestSupportedSetConcurrent: crawl workers share the memoized
// surfaces; first sights of a version race to build them.
func TestSupportedSetConcurrent(t *testing.T) {
	want := map[int]Set{}
	for v := 200; v < 204; v++ {
		for name, m := range supportMatrix {
			if i, ok := Index(name); ok && m[Chromium].Supported(v) {
				s := want[v]
				s.Add(i)
				want[v] = s
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				v := 200 + (g+k)%4
				if got := SupportedSet(Chromium, v); got != want[v] {
					t.Errorf("SupportedSet(Chromium, %d) = %v; want %v", v, got, want[v])
					return
				}
				if len(SupportedPermissions(Chromium, v)) == 0 {
					t.Errorf("SupportedPermissions(Chromium, %d) is empty", v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestByQueryNameFolds: query names fold case and whitespace, and fall
// back to registry names.
func TestByQueryNameFolds(t *testing.T) {
	if p, ok := ByQueryName(" Payment-Handler "); !ok || p.Name != "payment" {
		t.Errorf("ByQueryName(Payment-Handler) = %v, %v", p.Name, ok)
	}
	if p, ok := ByQueryName("fullscreen"); !ok || p.Name != "fullscreen" {
		t.Errorf("registry names resolve without a query name: %v, %v", p.Name, ok)
	}
	if _, ok := ByQueryName(""); ok {
		t.Error("the empty query name resolves to nothing")
	}
}
