package policy

import (
	"reflect"
	"testing"

	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
)

// oracleDoc is the reference implementation of the inherited-policy
// algorithm: one string-keyed map per document and one pass of the
// specification's steps per feature, written the way the specification
// reads. The engine computes the same answers over feature sets;
// FuzzInheritedPolicy checks that the two agree.
type oracleDoc struct {
	origin    origin.Origin
	declared  Policy
	parent    *oracleDoc
	inherited map[string]bool
}

func oracleTopLevel(o origin.Origin, declared Policy) *oracleDoc {
	d := &oracleDoc{origin: o, declared: declared}
	d.computeInherited(Policy{}, origin.Origin{})
	return d
}

func oracleSubframe(parent *oracleDoc, spec FrameSpec, mode SpecMode) *oracleDoc {
	d := &oracleDoc{parent: parent, origin: spec.DocumentOrigin, declared: spec.Declared}
	src := spec.SrcOrigin
	if spec.LocalScheme {
		d.origin, src = parent.origin, parent.origin
		if mode == SpecExpected {
			d.declared = parent.declared
		}
	}
	d.computeInherited(spec.Allow, src)
	return d
}

func (d *oracleDoc) computeInherited(container Policy, src origin.Origin) {
	d.inherited = map[string]bool{}
	for _, p := range permissions.All() {
		if p.PolicyControlled() {
			d.inherited[p.Name] = oracleInheritedPolicyFor(p, d.parent, container, d.origin, src)
		}
	}
}

// oracleInheritedPolicyFor is "Define an inherited policy for feature in
// container at origin", steps 1–7 (see Document.computeInherited).
func oracleInheritedPolicyFor(p permissions.Permission, parent *oracleDoc, container Policy,
	childOrigin, srcOrigin origin.Origin) bool {
	if parent == nil {
		return true
	}
	if !parent.enabledForOrigin(p.Name, parent.origin) {
		return false
	}
	if !parent.enabledForOrigin(p.Name, childOrigin) {
		return false
	}
	if al, ok := container.Get(p.Name); ok {
		return al.Matches(childOrigin, parent.origin, srcOrigin)
	}
	switch p.Default {
	case permissions.DefaultAll:
		return true
	case permissions.DefaultSelf:
		return childOrigin.SameOrigin(parent.origin)
	}
	return false
}

// enabledForOrigin is "Is feature enabled in document for origin?", with
// features that are not policy-controlled enabled in top-level documents
// only.
func (d *oracleDoc) enabledForOrigin(feature string, o origin.Origin) bool {
	p, known := permissions.Lookup(feature)
	if known && !p.PolicyControlled() {
		return d.parent == nil
	}
	if !d.inherited[feature] {
		return false
	}
	if al, ok := d.declared.Get(feature); ok {
		return al.Matches(o, d.origin, origin.Origin{})
	}
	return true
}

func (d *oracleDoc) allowedFeatures() []string {
	var out []string
	for _, p := range permissions.All() {
		if p.PolicyControlled() && d.enabledForOrigin(p.Name, d.origin) {
			out = append(out, p.Name)
		}
	}
	return out
}

// fuzzOrigins are the origins a fuzz case picks frames from and probes
// EnabledForOrigin with: the top level, a same-site sibling, two third
// parties, and the origins genHeader's allowlists name.
var fuzzOrigins = []origin.Origin{
	exampleOrg,
	origin.MustParse("https://sub.example.org"),
	iframeCom,
	attacker,
	origin.MustParse("https://w.example"),
}

// fuzzNames are every registry name plus case variants, padded names,
// an unknown name and the empty name.
func fuzzNames() []string {
	var names []string
	for _, p := range permissions.All() {
		names = append(names, p.Name)
	}
	return append(names, "Camera", "GEOLOCATION", " camera", "Notifications",
		" notifications ", "PUSH", "Ch-Ua", "made-up", "")
}

// parseFuzzHeader parses a header the way the browser does: a valid
// Permissions-Policy wins, otherwise the value is read as Feature-Policy.
func parseFuzzHeader(value string) Policy {
	if p, _, err := ParsePermissionsPolicy(value); err == nil {
		return p
	}
	p, _ := ParseFeaturePolicy(value)
	return p
}

// FuzzInheritedPolicy checks the feature-set engine against the oracle
// on a fuzzed frame chain: a top-level document with a fuzzed header, a
// frame with a fuzzed allow attribute and header, and (when sel asks)
// a third-party grandchild that the frame delegates the same allow
// attribute to. sel picks the frame's origin, whether it is local-scheme
// or redirected, the SpecMode and the chain depth. For every name in
// fuzzNames, Allowed and EnabledForOrigin (for every fuzz origin) must
// equal the oracle's answers, and AllowedFeatures must equal its list.
func FuzzInheritedPolicy(f *testing.F) {
	// Table 1 (top header × allow attribute, camera).
	for _, c := range [][2]string{
		{"", ""}, {"", "camera"}, {"camera=()", "camera"}, {"camera=(self)", "camera"},
		{"camera=(*)", ""}, {"camera=(*)", "camera"},
		{`camera=(self "https://iframe.com")`, "camera"}, {`camera=("https://iframe.com")`, "camera"},
	} {
		f.Add(c[0], c[1], "", uint8(2<<0))
	}
	// Table 11: camera=(self), a local-scheme frame delegating camera to
	// a third party, in both modes.
	f.Add("camera=(self)", "camera", "", uint8(1<<3|1<<5))
	f.Add("camera=(self)", "camera", "", uint8(1<<3|1<<4|1<<5))
	// The allowlists genHeader draws from, as header strings, paired
	// with its feature list as allow attributes and child headers.
	for i, h := range []string{
		"camera=()", "geolocation=(self)", "fullscreen=*",
		`payment=(self "https://w.example")`, `usb=("https://iframe.com")`,
		`gamepad=(), camera=(self), usb=*`,
	} {
		f.Add(h, "camera; geolocation; fullscreen; payment; gamepad; usb", h, uint8(i*37))
		f.Add(h, "camera *; geolocation *; fullscreen *; payment *; gamepad *; usb *", "", uint8(i*53+1))
	}
	// Legacy syntax, case variants and names that are not policy-controlled.
	f.Add("camera 'self'; geolocation 'none'", "Camera; NOTIFICATIONS *", "camera=()", uint8(3<<0|1<<5))
	f.Add("notifications=*, made-up=()", "notifications; push *; made-up", "push=()", uint8(2<<0))

	f.Fuzz(func(t *testing.T, topHeader, allow, childHeader string, sel uint8) {
		allowPolicy, _ := ParseAllowAttr(allow)
		childPolicy := parseFuzzHeader(childHeader)
		mode := SpecMode(sel >> 4 & 1)
		frameOrigin := fuzzOrigins[int(sel&7)%len(fuzzOrigins)]
		spec := FrameSpec{
			SrcOrigin:      frameOrigin,
			DocumentOrigin: frameOrigin,
			Allow:          allowPolicy,
			Declared:       childPolicy,
			LocalScheme:    sel&(1<<3) != 0,
		}
		if sel&(1<<6) != 0 {
			spec.DocumentOrigin = attacker // redirected after the src was chosen
		}
		if spec.LocalScheme {
			spec.SrcOrigin, spec.DocumentOrigin = origin.Origin{}, origin.Origin{}
		}

		declared := parseFuzzHeader(topHeader)
		top, oracleTop := NewTopLevel(exampleOrg, declared), oracleTopLevel(exampleOrg, declared)
		docs := []*Document{top, NewSubframe(top, spec, mode)}
		oracles := []*oracleDoc{oracleTop, oracleSubframe(oracleTop, spec, mode)}
		if sel&(1<<5) != 0 {
			third := FrameSpec{SrcOrigin: attacker, DocumentOrigin: attacker, Allow: allowPolicy}
			docs = append(docs, NewSubframe(docs[1], third, mode))
			oracles = append(oracles, oracleSubframe(oracles[1], third, mode))
		}
		for depth, d := range docs {
			o := oracles[depth]
			if d.Origin != o.origin || !reflect.DeepEqual(d.Declared, o.declared) {
				t.Fatalf("depth %d: origin %v, declared %v; oracle %v, %v", depth, d.Origin, d.Declared, o.origin, o.declared)
			}
			for _, name := range fuzzNames() {
				if got, want := d.Allowed(name), o.enabledForOrigin(name, o.origin); got != want {
					t.Fatalf("depth %d: Allowed(%q) = %v; oracle %v", depth, name, got, want)
				}
				for _, at := range fuzzOrigins {
					if got, want := d.EnabledForOrigin(name, at), o.enabledForOrigin(name, at); got != want {
						t.Fatalf("depth %d: EnabledForOrigin(%q, %v) = %v; oracle %v", depth, name, at, got, want)
					}
				}
			}
			if got, want := d.AllowedFeatures(), o.allowedFeatures(); !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d: AllowedFeatures = %v; oracle %v", depth, got, want)
			}
		}
	})
}
