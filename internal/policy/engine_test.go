package policy

import (
	"testing"

	"permodyssey/internal/origin"
)

var (
	exampleOrg = origin.MustParse("https://example.org")
	iframeCom  = origin.MustParse("https://iframe.com")
	attacker   = origin.MustParse("https://attacker.com")
)

// mustPP parses a Permissions-Policy header value or fails the test.
func mustPP(t *testing.T, value string) Policy {
	t.Helper()
	if value == "" {
		return Policy{}
	}
	p, _, err := ParsePermissionsPolicy(value)
	if err != nil {
		t.Fatalf("ParsePermissionsPolicy(%q): %v", value, err)
	}
	return p
}

// mustAllow parses an allow attribute.
func mustAllow(value string) Policy {
	p, _ := ParseAllowAttr(value)
	return p
}

// TestTable1CameraInterplay reproduces every row of the paper's Table 1:
// the interplay of the top-level Permissions-Policy header and the
// iframe allow attribute for the camera permission (default allowlist
// self). Column 1 = can the top level prompt/delegate; column 2 = can
// the embedded iframe.com document.
func TestTable1CameraInterplay(t *testing.T) {
	cases := []struct {
		name       string
		header     string
		allow      string
		topLevelOK bool
		iframeOK   bool
	}{
		{"1 no header, no allow", "", "", true, false},
		{"2 no header, allow camera", "", "camera", true, true},
		{"3 deny", "camera=()", "camera", false, false},
		{"4 allow self", "camera=(self)", "camera", true, false},
		{"5 allow all, no allow", "camera=(*)", "", true, false},
		{"6 allow all, allow camera", "camera=(*)", "camera", true, true},
		{"7 allow necessary", `camera=(self "https://iframe.com")`, "camera", true, true},
		{"8 allow iframe only", `camera=("https://iframe.com")`, "camera", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			top := NewTopLevel(exampleOrg, mustPP(t, tc.header))
			if got := top.Allowed("camera"); got != tc.topLevelOK {
				t.Errorf("top-level camera = %v; want %v", got, tc.topLevelOK)
			}
			frame := NewSubframe(top, FrameSpec{
				SrcOrigin:      iframeCom,
				DocumentOrigin: iframeCom,
				Allow:          mustAllow(tc.allow),
			}, SpecActual)
			if got := frame.Allowed("camera"); got != tc.iframeOK {
				t.Errorf("iframe camera = %v; want %v", got, tc.iframeOK)
			}
		})
	}
}

// TestTable11LocalSchemeSpecIssue reproduces the specification issue of
// §6.2: with header camera=(self), a local-scheme document can (under
// the specification as written) delegate camera to an external
// third-party origin, bypassing the declared policy.
func TestTable11LocalSchemeSpecIssue(t *testing.T) {
	for _, tc := range []struct {
		mode       SpecMode
		attackerOK bool
	}{
		{SpecExpected, false},
		{SpecActual, true},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			top := NewTopLevel(exampleOrg, mustPP(t, "camera=(self)"))
			// The local-scheme document (e.g. a data: URI iframe).
			local := NewSubframe(top, FrameSpec{
				LocalScheme: true,
				Allow:       mustAllow("camera"),
			}, tc.mode)
			// Both rows of Table 11: the local-scheme document itself has
			// camera access and delegation capability.
			if !local.Allowed("camera") {
				t.Fatal("local-scheme document must have camera access in both modes")
			}
			// The local document delegates camera to the attacker.
			third := NewSubframe(local, FrameSpec{
				SrcOrigin:      attacker,
				DocumentOrigin: attacker,
				Allow:          mustAllow("camera"),
			}, tc.mode)
			if got := third.Allowed("camera"); got != tc.attackerOK {
				t.Errorf("mode %v: attacker camera = %v; want %v", tc.mode, got, tc.attackerOK)
			}
		})
	}
}

// TestNestedDelegationUncontrollable verifies §2.2.5: once a permission
// is delegated to an embedded document, the top-level website can no
// longer prevent nested delegations.
func TestNestedDelegationUncontrollable(t *testing.T) {
	top := NewTopLevel(exampleOrg, mustPP(t, `camera=(self "https://iframe.com")`))
	frame := NewSubframe(top, FrameSpec{
		SrcOrigin:      iframeCom,
		DocumentOrigin: iframeCom,
		Allow:          mustAllow("camera"),
	}, SpecActual)
	if !frame.Allowed("camera") {
		t.Fatal("setup: iframe.com must have camera (Table 1 case 7)")
	}
	nested := NewSubframe(frame, FrameSpec{
		SrcOrigin:      attacker,
		DocumentOrigin: attacker,
		Allow:          mustAllow("camera"),
	}, SpecActual)
	if !nested.Allowed("camera") {
		t.Error("nested delegation must succeed regardless of the top-level header")
	}
}

// TestChildHeaderRestricts: the embedded document's own header can still
// opt out of a delegated permission.
func TestChildHeaderRestricts(t *testing.T) {
	top := NewTopLevel(exampleOrg, Policy{})
	frame := NewSubframe(top, FrameSpec{
		SrcOrigin:      iframeCom,
		DocumentOrigin: iframeCom,
		Allow:          mustAllow("camera"),
		Declared:       mustPP(t, "camera=()"),
	}, SpecActual)
	if frame.Allowed("camera") {
		t.Error("child's own camera=() header must disable the delegated permission")
	}
}

func TestDefaultAllowlists(t *testing.T) {
	top := NewTopLevel(exampleOrg, Policy{})
	sameOriginFrame := NewSubframe(top, FrameSpec{
		SrcOrigin:      exampleOrg,
		DocumentOrigin: exampleOrg,
	}, SpecActual)
	crossFrame := NewSubframe(top, FrameSpec{
		SrcOrigin:      iframeCom,
		DocumentOrigin: iframeCom,
	}, SpecActual)

	// Default self: enabled top-level and same-origin frames only.
	for _, d := range []*Document{top, sameOriginFrame} {
		if !d.Allowed("geolocation") {
			t.Errorf("geolocation (default self) should be enabled in %v", d.Origin)
		}
	}
	if crossFrame.Allowed("geolocation") {
		t.Error("geolocation must be disabled in a cross-origin frame without delegation")
	}
	// Default *: enabled everywhere (picture-in-picture; §4.2.1 notes
	// delegating it is unnecessary).
	for _, d := range []*Document{top, sameOriginFrame, crossFrame} {
		if !d.Allowed("picture-in-picture") {
			t.Errorf("picture-in-picture (default *) should be enabled in %v", d.Origin)
		}
	}
	// Not policy-controlled: top-level only (§4.1.1: notifications
	// cannot be delegated).
	if !top.Allowed("notifications") {
		t.Error("notifications allowed at top level")
	}
	if crossFrame.Allowed("notifications") || sameOriginFrame.Allowed("notifications") {
		t.Error("notifications must not be available to embedded documents")
	}
}

func TestRedirectWithSrcDirective(t *testing.T) {
	// §4.2.2/§5.2: the default 'src' directive follows the iframe's src
	// origin; a wildcard keeps the permission across redirections to
	// other origins.
	top := NewTopLevel(exampleOrg, Policy{})
	// allow="camera" (defaults to 'src'); document redirected elsewhere.
	redirected := NewSubframe(top, FrameSpec{
		SrcOrigin:      iframeCom,
		DocumentOrigin: attacker, // redirect landed here
		Allow:          mustAllow("camera"),
	}, SpecActual)
	if redirected.Allowed("camera") {
		t.Error("'src' delegation must not survive a cross-origin redirect")
	}
	// allow="camera *": wildcard survives the redirect (the LiveChat
	// hijacking risk of §5.2).
	wildcard := NewSubframe(top, FrameSpec{
		SrcOrigin:      iframeCom,
		DocumentOrigin: attacker,
		Allow:          mustAllow("camera *"),
	}, SpecActual)
	if !wildcard.Allowed("camera") {
		t.Error("wildcard delegation survives redirects — that is the documented risk")
	}
}

func TestCanDelegate(t *testing.T) {
	top := NewTopLevel(exampleOrg, mustPP(t, "camera=(self), geolocation=()"))
	if top.CanDelegate("camera", iframeCom) {
		t.Error("camera=(self) prevents delegating to iframe.com (Table 1 case 4)")
	}
	if top.CanDelegate("geolocation", iframeCom) {
		t.Error("geolocation=() prevents any delegation")
	}
	open := NewTopLevel(exampleOrg, Policy{})
	if !open.CanDelegate("camera", iframeCom) {
		t.Error("without a header, camera can be delegated (Table 1 case 2)")
	}
	if open.CanDelegate("notifications", iframeCom) {
		t.Error("notifications is not policy-controlled; never delegatable")
	}
	if open.CanDelegate("made-up-feature", iframeCom) {
		t.Error("unknown features cannot be delegated")
	}
}

func TestAllowedFeatures(t *testing.T) {
	top := NewTopLevel(exampleOrg, mustPP(t, "camera=(), microphone=()"))
	feats := top.AllowedFeatures()
	set := map[string]bool{}
	for _, f := range feats {
		set[f] = true
	}
	if set["camera"] || set["microphone"] {
		t.Error("disabled features must not appear in allowedFeatures")
	}
	if !set["geolocation"] || !set["picture-in-picture"] {
		t.Error("defaults must appear in allowedFeatures")
	}
	// Embedded cross-origin document: default-self features absent,
	// default-* features present.
	frame := NewSubframe(top, FrameSpec{SrcOrigin: iframeCom, DocumentOrigin: iframeCom}, SpecActual)
	fset := map[string]bool{}
	for _, f := range frame.AllowedFeatures() {
		fset[f] = true
	}
	if fset["geolocation"] {
		t.Error("cross-origin frame must not list geolocation")
	}
	if !fset["gamepad"] {
		t.Error("cross-origin frame should list gamepad (default *)")
	}
}

func TestEnabledForOriginWithDeclaredDirective(t *testing.T) {
	// A declared directive makes EnabledForOrigin answer per-origin: the
	// base of delegation decisions.
	top := NewTopLevel(exampleOrg, mustPP(t, `geolocation=(self "https://trusted.com")`))
	trusted := origin.MustParse("https://trusted.com")
	if !top.EnabledForOrigin("geolocation", trusted) {
		t.Error("trusted.com is in the declared allowlist")
	}
	if top.EnabledForOrigin("geolocation", attacker) {
		t.Error("attacker.com is not in the declared allowlist")
	}
}

func TestLocalSchemeDocumentSharesParentOrigin(t *testing.T) {
	top := NewTopLevel(exampleOrg, Policy{})
	local := NewSubframe(top, FrameSpec{LocalScheme: true}, SpecActual)
	if !local.Origin.SameOrigin(exampleOrg) {
		t.Error("local-scheme documents evaluate with the parent's origin")
	}
	// Default-self features are therefore available without delegation.
	if !local.Allowed("geolocation") {
		t.Error("local-scheme document gets default-self features of the parent context")
	}
}

func TestIsTopLevelAndParent(t *testing.T) {
	top := NewTopLevel(exampleOrg, Policy{})
	if !top.IsTopLevel() || top.Parent() != nil {
		t.Error("top-level document misclassified")
	}
	frame := NewSubframe(top, FrameSpec{SrcOrigin: iframeCom, DocumentOrigin: iframeCom}, SpecActual)
	if frame.IsTopLevel() || frame.Parent() != top {
		t.Error("subframe misclassified")
	}
}

// TestFeatureNameHandling pins how the engine matches feature names. A
// policy-controlled feature is matched by its exact registry name; only
// the "not policy-controlled ⇒ top level only" rule folds case and trims
// whitespace; unknown names are never enabled. Allow attributes reach
// the engine already lowercased by ParseAllowAttr.
func TestFeatureNameHandling(t *testing.T) {
	top := NewTopLevel(exampleOrg, Policy{})
	same := NewSubframe(top, FrameSpec{SrcOrigin: exampleOrg, DocumentOrigin: exampleOrg}, SpecActual)
	for _, tc := range []struct {
		feature   string
		top, same bool
	}{
		{"camera", true, true},
		{"Camera", false, false},
		{" camera", false, false},
		{"notifications", true, false},
		{" Notifications ", true, false},
		{"PUSH", true, false},
		{"made-up", false, false},
		{"", false, false},
	} {
		if got := top.Allowed(tc.feature); got != tc.top {
			t.Errorf("top.Allowed(%q) = %v; want %v", tc.feature, got, tc.top)
		}
		if got := same.Allowed(tc.feature); got != tc.same {
			t.Errorf("same-origin frame Allowed(%q) = %v; want %v", tc.feature, got, tc.same)
		}
		// Without a header the top level's answer holds for every origin.
		if got := top.EnabledForOrigin(tc.feature, iframeCom); got != tc.top {
			t.Errorf("top.EnabledForOrigin(%q, iframe.com) = %v; want %v", tc.feature, got, tc.top)
		}
	}

	// A declared directive is matched by exact name too: "Geolocation"
	// neither reads nor is restricted by geolocation=().
	restricted := NewTopLevel(exampleOrg, mustPP(t, "geolocation=()"))
	if restricted.EnabledForOrigin("geolocation", exampleOrg) {
		t.Error("geolocation=() must disable geolocation")
	}
	if restricted.EnabledForOrigin("Geolocation", exampleOrg) {
		t.Error("a case variant of a policy-controlled feature is never enabled")
	}

	// The allow attribute lowercases feature names, so allow="Camera"
	// delegates camera; allow="notifications" delegates nothing because
	// the feature is not policy-controlled.
	for _, tc := range []struct {
		allow, feature string
		want           bool
	}{
		{"Camera", "camera", true},
		{"CAMERA *", "camera", true},
		{"", "camera", false},
		{"notifications", "notifications", false},
		{"notifications *", "notifications", false},
		{"made-up", "made-up", false},
	} {
		frame := NewSubframe(top, FrameSpec{
			SrcOrigin: iframeCom, DocumentOrigin: iframeCom, Allow: mustAllow(tc.allow),
		}, SpecActual)
		if got := frame.Allowed(tc.feature); got != tc.want {
			t.Errorf("allow=%q: frame.Allowed(%q) = %v; want %v", tc.allow, tc.feature, got, tc.want)
		}
	}
}
