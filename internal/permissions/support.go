package permissions

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Browser identifies a browser engine family for the support matrix.
type Browser uint8

const (
	Chromium Browser = iota
	Firefox
	Safari
)

var browserNames = map[Browser]string{
	Chromium: "Chromium",
	Firefox:  "Firefox",
	Safari:   "Safari",
}

func (b Browser) String() string { return browserNames[b] }

// Browsers lists the engines the support tool tracks.
var Browsers = []Browser{Chromium, Firefox, Safari}

// Support describes one browser's support for one permission, in the
// style of the paper's caniuse-like website (Appendix A.6): the tool
// "details which permissions are supported and whether they are
// classified as policy-controlled or powerful by different browser
// vendors", and "tracks historical changes across browser versions".
type Support struct {
	// Since is the first major version with API support (0 = unsupported).
	Since int
	// PolicySince is the first major version that honors this permission
	// in the allow attribute / Permissions-Policy (0 = never).
	PolicySince int
	// RemovedIn, when non-zero, is the version that removed the feature
	// (e.g. interest-cohort / FLoC).
	RemovedIn int
}

// Supported reports support at the given version.
func (s Support) Supported(version int) bool {
	if s.Since == 0 || version < s.Since {
		return false
	}
	return s.RemovedIn == 0 || version < s.RemovedIn
}

// PolicySupported reports allow-attribute/header enforcement at version.
func (s Support) PolicySupported(version int) bool {
	if s.PolicySince == 0 || version < s.PolicySince {
		return false
	}
	return s.RemovedIn == 0 || version < s.RemovedIn
}

// HeaderSupport records which response headers an engine enforces
// (§2.2.6: only Chromium supports the Permissions-Policy header; the
// deprecated Feature-Policy header is still enforced there as fallback).
type HeaderSupport struct {
	PermissionsPolicy bool
	FeaturePolicy     bool
	AllowAttribute    bool
}

// Headers is the per-engine header support matrix.
var Headers = map[Browser]HeaderSupport{
	Chromium: {PermissionsPolicy: true, FeaturePolicy: true, AllowAttribute: true},
	Firefox:  {PermissionsPolicy: false, FeaturePolicy: false, AllowAttribute: true},
	Safari:   {PermissionsPolicy: false, FeaturePolicy: false, AllowAttribute: true},
}

// supportMatrix maps permission name → engine → support record. Versions
// are modeled on the public release history; the exact integers matter
// only to the historical-change tracker, not to any paper table.
var supportMatrix = map[string]map[Browser]Support{}

func setSupport(name string, ch, chPolicy, ff, ffPolicy, sf, sfPolicy int) {
	supportMatrix[name] = map[Browser]Support{
		Chromium: {Since: ch, PolicySince: chPolicy},
		Firefox:  {Since: ff, PolicySince: ffPolicy},
		Safari:   {Since: sf, PolicySince: sfPolicy},
	}
}

func init() {
	// name, chromium api/policy, firefox api/policy, safari api/policy.
	setSupport("camera", 21, 60, 36, 74, 11, 12)
	setSupport("microphone", 21, 60, 36, 74, 11, 12)
	setSupport("geolocation", 5, 60, 3, 74, 5, 12)
	setSupport("display-capture", 72, 72, 66, 74, 13, 13)
	setSupport("notifications", 22, 0, 22, 0, 7, 0)
	setSupport("push", 42, 0, 44, 0, 16, 0)
	setSupport("battery", 38, 94, 43, 0, 0, 0)
	setSupport("accelerometer", 67, 67, 0, 0, 0, 0)
	setSupport("gyroscope", 67, 67, 0, 0, 0, 0)
	setSupport("magnetometer", 67, 67, 0, 0, 0, 0)
	setSupport("ambient-light-sensor", 67, 67, 0, 0, 0, 0)
	setSupport("autoplay", 66, 66, 66, 74, 11, 0)
	setSupport("encrypted-media", 42, 64, 38, 74, 12, 0)
	setSupport("fullscreen", 15, 62, 9, 74, 5, 12)
	setSupport("picture-in-picture", 70, 70, 0, 0, 13, 0)
	setSupport("clipboard-read", 66, 86, 63, 0, 13, 0)
	setSupport("clipboard-write", 66, 86, 63, 0, 13, 0)
	setSupport("web-share", 89, 89, 71, 0, 12, 0)
	setSupport("gamepad", 21, 86, 29, 0, 10, 0)
	setSupport("payment", 60, 60, 56, 0, 11, 0)
	setSupport("midi", 43, 64, 99, 0, 0, 0)
	setSupport("usb", 61, 64, 0, 0, 0, 0)
	setSupport("serial", 89, 89, 0, 0, 0, 0)
	setSupport("hid", 89, 89, 0, 0, 0, 0)
	setSupport("bluetooth", 56, 104, 0, 0, 0, 0)
	setSupport("storage-access", 119, 119, 65, 0, 11, 0)
	setSupport("top-level-storage-access", 113, 113, 0, 0, 0, 0)
	setSupport("publickey-credentials-get", 67, 84, 60, 0, 13, 0)
	setSupport("publickey-credentials-create", 67, 110, 60, 0, 13, 0)
	setSupport("identity-credentials-get", 108, 110, 0, 0, 0, 0)
	setSupport("otp-credentials", 84, 84, 0, 0, 0, 0)
	setSupport("idle-detection", 94, 94, 0, 0, 0, 0)
	setSupport("screen-wake-lock", 84, 84, 126, 0, 16, 0)
	setSupport("system-wake-lock", 0, 0, 0, 0, 0, 0)
	setSupport("keyboard-lock", 68, 0, 0, 0, 0, 0)
	setSupport("keyboard-map", 69, 98, 0, 0, 0, 0)
	setSupport("pointer-lock", 37, 0, 50, 0, 10, 0)
	setSupport("local-fonts", 103, 103, 0, 0, 0, 0)
	setSupport("window-management", 100, 111, 0, 0, 0, 0)
	setSupport("compute-pressure", 125, 125, 0, 0, 0, 0)
	setSupport("direct-sockets", 0, 0, 0, 0, 0, 0)
	setSupport("attribution-reporting", 115, 115, 0, 0, 0, 0)
	setSupport("browsing-topics", 115, 115, 0, 0, 0, 0)
	setSupport("run-ad-auction", 115, 115, 0, 0, 0, 0)
	setSupport("join-ad-interest-group", 115, 115, 0, 0, 0, 0)
	setSupport("private-state-token-issuance", 115, 115, 0, 0, 0, 0)
	setSupport("sync-xhr", 1, 65, 1, 0, 1, 0)
	setSupport("cross-origin-isolated", 87, 87, 0, 0, 0, 0)
	setSupport("vr", 0, 62, 0, 0, 0, 0)
	setSupport("xr-spatial-tracking", 79, 79, 0, 0, 0, 0)
	setSupport("speaker-selection", 0, 0, 116, 0, 0, 0)
	// interest-cohort (FLoC) shipped in 89 and was removed in 115.
	supportMatrix["interest-cohort"] = map[Browser]Support{
		Chromium: {Since: 89, PolicySince: 89, RemovedIn: 115},
		Firefox:  {},
		Safari:   {},
	}
	for _, hint := range []string{
		"ch-ua", "ch-ua-arch", "ch-ua-bitness", "ch-ua-full-version",
		"ch-ua-full-version-list", "ch-ua-mobile", "ch-ua-model",
		"ch-ua-platform", "ch-ua-platform-version", "ch-ua-wow64",
	} {
		setSupport(hint, 89, 89, 0, 0, 0, 0)
	}
}

// SupportFor returns the support record for (name, browser).
func SupportFor(name string, b Browser) (Support, bool) {
	m, ok := supportMatrix[strings.ToLower(name)]
	if !ok {
		return Support{}, false
	}
	return m[b], true
}

// SupportedIn reports whether permission name has API support in the
// given browser version.
func SupportedIn(name string, b Browser, version int) bool {
	s, ok := SupportFor(name, b)
	return ok && s.Supported(version)
}

// SupportedPermissions returns the sorted names of permissions with API
// support in the given browser at the given version. This drives the
// header generator's "supported permissions" list (§6.3).
func SupportedPermissions(b Browser, version int) []string {
	return append([]string(nil), surfaceOf(b, version).names...)
}

// SupportedSet returns the registered permissions with API support in
// the given browser at the given version.
func SupportedSet(b Browser, version int) Set {
	return surfaceOf(b, version).set
}

// surface is one browser version's supported permissions.
type surface struct {
	names []string // sorted; shared, never modified
	set   Set
}

type browserVersion struct {
	b       Browser
	version int
}

// surfaces memoizes surfaceOf: a crawl asks for the same one or two
// (browser, version) pairs on every allowedFeatures() call.
var surfaces sync.Map // browserVersion → *surface

func surfaceOf(b Browser, version int) *surface {
	key := browserVersion{b, version}
	if s, ok := surfaces.Load(key); ok {
		return s.(*surface)
	}
	s := &surface{}
	for name, m := range supportMatrix {
		if m[b].Supported(version) {
			s.names = append(s.names, name)
			if i, ok := Index(name); ok {
				s.set.Add(i)
			}
		}
	}
	sort.Strings(s.names)
	actual, _ := surfaces.LoadOrStore(key, s)
	return actual.(*surface)
}

// Change is one historical support transition for the change tracker
// (Appendix A.6: "tracks historical changes across browser versions").
type Change struct {
	Permission string
	Browser    Browser
	Version    int
	Kind       string // "added", "policy-added", "removed"
}

func (c Change) String() string {
	return fmt.Sprintf("%s %d: %s %s", c.Browser, c.Version, c.Permission, c.Kind)
}

// ChangesBetween returns every support change in (from, to] for a
// browser, sorted by version then permission.
func ChangesBetween(b Browser, from, to int) []Change {
	var out []Change
	for name, m := range supportMatrix {
		s := m[b]
		if s.Since > from && s.Since <= to {
			out = append(out, Change{Permission: name, Browser: b, Version: s.Since, Kind: "added"})
		}
		if s.PolicySince > from && s.PolicySince <= to {
			out = append(out, Change{Permission: name, Browser: b, Version: s.PolicySince, Kind: "policy-added"})
		}
		if s.RemovedIn > from && s.RemovedIn <= to {
			out = append(out, Change{Permission: name, Browser: b, Version: s.RemovedIn, Kind: "removed"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].Permission < out[j].Permission
	})
	return out
}

// FingerprintSurface returns, for a browser version, the sorted list of
// supported permission names. §4.1.1 observes that retrieving the full
// permission list "enables fingerprinting by revealing differences in
// permission support across browsers and even across versions": two
// versions with different surfaces are distinguishable.
func FingerprintSurface(b Browser, version int) []string {
	return SupportedPermissions(b, version)
}
