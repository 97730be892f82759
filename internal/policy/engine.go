package policy

import (
	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
)

// SpecMode selects between the Permissions Policy specification as
// written (which Chromium implements, including the local-scheme
// inheritance defect the paper reports in §6.2 / W3C issue 552) and the
// behaviour the paper argues developers expect.
type SpecMode uint8

const (
	// SpecActual models the specification as written: local-scheme
	// documents (data:, about:srcdoc, blob:, javascript:) do NOT inherit
	// the declared policy of their parent. A page that declares
	// camera=(self) can therefore be bypassed by creating a local-scheme
	// iframe which, carrying no declared policy of its own, re-delegates
	// camera to an arbitrary third party.
	SpecActual SpecMode = iota
	// SpecExpected models the fixed behaviour: local-scheme documents
	// inherit their parent's declared policy, so the parent's
	// restrictions keep binding nested delegations.
	SpecExpected
)

func (m SpecMode) String() string {
	if m == SpecExpected {
		return "expected"
	}
	return "actual-specification"
}

// Document is a document with its computed Permissions Policy: the
// declared policy (from its own headers — or, for local-scheme
// documents under SpecExpected, inherited from the parent) and the
// inherited policy computed from the embedding context, held as a set
// of policy-controlled features keyed by permissions.Index.
type Document struct {
	// Origin is the document's effective origin for policy evaluation.
	// Local-scheme documents evaluate with their parent's origin (they
	// are "the same site" for prompting purposes; the prompt says
	// "example.org is asking to use your camera", §2.2.2).
	Origin origin.Origin
	// Declared is the policy from the document's Permissions-Policy (or
	// fallback Feature-Policy) header.
	Declared Policy
	// LocalScheme marks documents loaded from local schemes.
	LocalScheme bool

	parent *Document
	// inherited holds the features whose inherited policy is Enabled;
	// self holds those enabled for the document's own origin (inherited
	// and, where Declared names the feature, matched by its allowlist).
	inherited, self permissions.Set
}

// The feature masks the inheritance pass reads, fixed at init.
var (
	policyControlled = permissions.SetOf(permissions.Permission.PolicyControlled)
	defaultAll       = withDefault(permissions.DefaultAll)
	defaultSelf      = withDefault(permissions.DefaultSelf)
)

func withDefault(d permissions.DefaultAllowlist) permissions.Set {
	return permissions.SetOf(func(p permissions.Permission) bool { return p.Default == d })
}

// NewTopLevel creates the policy document for a top-level navigation.
func NewTopLevel(o origin.Origin, declared Policy) *Document {
	d := &Document{Origin: o, Declared: declared}
	d.computeInherited(nil, Policy{}, origin.Origin{})
	return d
}

// FrameSpec describes an iframe being loaded, as the engine needs it.
type FrameSpec struct {
	// SrcOrigin is the origin of the frame's src URL (the 'src' keyword
	// target). Zero for local-scheme frames.
	SrcOrigin origin.Origin
	// DocumentOrigin is the origin of the document that actually loaded
	// (usually SrcOrigin; differs after redirects).
	DocumentOrigin origin.Origin
	// Allow is the parsed allow attribute (container policy).
	Allow Policy
	// Declared is the child document's own header policy.
	Declared Policy
	// LocalScheme marks data:/about:/blob:/javascript: frames.
	LocalScheme bool
}

// NewSubframe computes the policy document for a frame embedded in
// parent, per the specification's inherited-policy algorithm, under the
// given SpecMode.
func NewSubframe(parent *Document, spec FrameSpec, mode SpecMode) *Document {
	d := &Document{LocalScheme: spec.LocalScheme, parent: parent}
	childOrigin := spec.DocumentOrigin
	srcOrigin := spec.SrcOrigin
	if spec.LocalScheme {
		// Local-scheme frames have no network src; the 'src' keyword (the
		// allow attribute's default) resolves to the embedding context.
		srcOrigin = parent.Origin
		// Local-scheme documents evaluate with the parent's origin: the
		// user-visible context (and the prompt) is the embedding page.
		childOrigin = parent.Origin
		switch mode {
		case SpecExpected:
			d.Declared = parent.Declared
		case SpecActual:
			// The defect: the parent's declared policy is NOT inherited.
			d.Declared = spec.Declared
		}
	} else {
		d.Declared = spec.Declared
	}
	d.Origin = childOrigin
	d.computeInherited(parent, spec.Allow, srcOrigin)
	return d
}

// computeInherited runs "Define an inherited policy for feature in
// container at origin" for every policy-controlled feature at once:
//
//  1. If container is null, return Enabled.
//  2. If feature is Disabled in the container document for the container
//     document's origin, return Disabled.
//  3. If feature is Disabled in the container document for the new
//     document's origin, return Disabled.
//  4. If feature is present in the container policy (allow attribute),
//     return whether its allowlist matches the new document's origin.
//  5. If the feature's default allowlist is *, return Enabled.
//  6. If the feature's default allowlist is 'self' and the new origin is
//     same origin with the container document's origin, return Enabled.
//  7. Return Disabled.
//
// Directives naming unknown features, features that are not
// policy-controlled, or a feature already named earlier in the same
// policy are ignored, as Policy.Get would ignore them.
func (d *Document) computeInherited(parent *Document, containerPolicy Policy, srcOrigin origin.Origin) {
	if parent == nil {
		d.inherited = policyControlled
	} else {
		enabled := parent.self.And(parent.enabledFor(d.Origin)) // steps 2–3
		var named, matched permissions.Set                      // step 4
		for _, dir := range containerPolicy.Directives {
			i, ok := permissions.Index(dir.Feature)
			if !ok || !policyControlled.Has(i) || named.Has(i) {
				continue
			}
			named.Add(i)
			if enabled.Has(i) && dir.Allowlist.Matches(d.Origin, parent.Origin, srcOrigin) {
				matched.Add(i)
			}
		}
		defaults := defaultAll // steps 5–7
		if d.Origin.SameOrigin(parent.Origin) {
			defaults = defaults.Or(defaultSelf)
		}
		d.inherited = enabled.And(matched.Or(defaults.AndNot(named)))
	}
	d.self = d.enabledFor(d.Origin)
}

// enabledFor returns the features enabled in d for origin o: the
// inherited set minus each feature whose declared allowlist (the first
// directive naming it) does not match o.
func (d *Document) enabledFor(o origin.Origin) permissions.Set {
	out := d.inherited
	var named permissions.Set
	for _, dir := range d.Declared.Directives {
		i, ok := permissions.Index(dir.Feature)
		if !ok || named.Has(i) {
			continue
		}
		named.Add(i)
		if out.Has(i) && !dir.Allowlist.Matches(o, d.Origin, origin.Origin{}) {
			out.Remove(i)
		}
	}
	return out
}

// controlledIndex returns the index of the policy-controlled feature
// named exactly feature. Policy-controlled features are matched by exact
// name: "Camera" is not camera.
func controlledIndex(feature string) (int, bool) {
	i, ok := permissions.Index(feature)
	return i, ok && policyControlled.Has(i)
}

// uncontrolled answers for every name that is not exactly a
// policy-controlled feature. Features that are not policy-controlled are
// enabled exactly in top-level documents (paper §4.1.1: notifications
// "cannot be delegated", hence the low embedded counts); only this rule
// folds case and trims whitespace. Every other name — unknown, or a
// case variant of a policy-controlled feature — is never enabled.
func (d *Document) uncontrolled(feature string) bool {
	p, known := permissions.Lookup(feature)
	return known && !p.PolicyControlled() && d.parent == nil
}

// EnabledForOrigin implements "Is feature enabled in document for
// origin?":
//
//  1. If the inherited policy for feature is Disabled, return Disabled.
//  2. If feature is in the declared policy, return whether its allowlist
//     matches origin.
//  3. Return Enabled (the inherited policy was Enabled).
func (d *Document) EnabledForOrigin(feature string, o origin.Origin) bool {
	i, ok := controlledIndex(feature)
	if !ok {
		return d.uncontrolled(feature)
	}
	if !d.inherited.Has(i) {
		return false
	}
	if al, ok := d.Declared.Get(feature); ok {
		return al.Matches(o, d.Origin, origin.Origin{})
	}
	return true
}

// Allowed reports whether the document itself may use the feature — the
// condition for the corresponding APIs being callable (and, for
// powerful features, for the browser being willing to prompt).
func (d *Document) Allowed(feature string) bool {
	if i, ok := controlledIndex(feature); ok {
		return d.self.Has(i)
	}
	return d.uncontrolled(feature)
}

// AllowedSet returns the policy-controlled features allowed in this
// document.
func (d *Document) AllowedSet() permissions.Set { return d.self }

// AllowedFeatures returns the features allowed in this document, in
// registry order — the value the
// document.featurePolicy.allowedFeatures() / permissionsPolicy API
// exposes to scripts (heavily called per Table 4/5).
func (d *Document) AllowedFeatures() []string { return d.self.Names() }

// CanDelegate reports whether this document can delegate the feature to
// a child at childOrigin via an allow attribute — i.e. whether the
// feature would be enabled in the child (before the child's own header).
// "Only permissions that a website has access to itself can be
// delegated" (§2.2.2).
func (d *Document) CanDelegate(feature string, childOrigin origin.Origin) bool {
	p, ok := permissions.Lookup(feature)
	if !ok || !p.PolicyControlled() {
		return false
	}
	allow := Policy{Directives: []Directive{{
		Feature:   feature,
		Allowlist: Allowlist{Origins: []string{childOrigin.String()}},
	}}}
	child := NewSubframe(d, FrameSpec{
		SrcOrigin:      childOrigin,
		DocumentOrigin: childOrigin,
		Allow:          allow,
	}, SpecActual)
	return child.Allowed(feature)
}

// Parent returns the embedding document, or nil for top-level.
func (d *Document) Parent() *Document { return d.parent }

// IsTopLevel reports whether this is a top-level document.
func (d *Document) IsTopLevel() bool { return d.parent == nil }
