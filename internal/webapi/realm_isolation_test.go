package webapi

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"permodyssey/internal/script"
)

// TestRealmIsolation proves realms stamped from the shared surface
// snapshot cannot observe each other's mutations: global writes, host
// object writes, and handler registrations stay realm-local.
func TestRealmIsolation(t *testing.T) {
	a := topLevelRealm(t, "")
	b := topLevelRealm(t, "")
	if err := a.RunScript(`
	window.tag = 'realm-a';
	navigator.planted = 42;
	document.body.planted = 'body-a';
	location.planted = true;
	addEventListener('click', function () {});
	`, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.RunScript(`
	window.sawTag = typeof window.tag;
	window.sawNav = typeof navigator.planted;
	window.sawBody = typeof document.body.planted;
	window.sawLoc = typeof location.planted;
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := b.In.Global.Get("window")
	for _, key := range []string{"sawTag", "sawNav", "sawBody", "sawLoc"} {
		if v, _ := win.Obj().Get(key); v.ToString() != "undefined" {
			t.Errorf("realm B observed realm A's %s: %q", key, v.ToString())
		}
	}
	if a.HandlerCount("click") != 1 || b.HandlerCount("click") != 0 {
		t.Errorf("handlers leaked: a=%d b=%d", a.HandlerCount("click"), b.HandlerCount("click"))
	}
	// A third realm built after the mutations must come out pristine —
	// the template itself was not written through.
	c := topLevelRealm(t, "")
	if err := c.RunScript(`window.sawTag = typeof window.tag;`, ""); err != nil {
		t.Fatal(err)
	}
	winC, _ := c.In.Global.Get("window")
	if v, _ := winC.Obj().Get("sawTag"); v.ToString() != "undefined" {
		t.Error("template polluted: fresh realm observed an earlier realm's global write")
	}
}

// TestRealmGlobalAliasing verifies stamping preserves intra-snapshot
// aliasing: window, self, and globalThis are one object; location is
// shared between window, document, and the global binding.
func TestRealmGlobalAliasing(t *testing.T) {
	r := topLevelRealm(t, "")
	if err := r.RunScript(`
	window.aliases = (window === self) && (window === globalThis);
	window.locShared = (window.location === location) && (document.location === location);
	window.navShared = (window.navigator === navigator);
	window.href = location.href;
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := r.In.Global.Get("window")
	for _, key := range []string{"aliases", "locShared", "navShared"} {
		if v, _ := win.Obj().Get(key); !v.Truthy() {
			t.Errorf("%s = %s; want true", key, v.ToString())
		}
	}
	if v, _ := win.Obj().Get("href"); v.ToString() != "https://example.org/" {
		t.Errorf("location.href = %q; want the frame URL", v.ToString())
	}
}

// TestRealmPerRealmState verifies the patched-in per-realm scalars and
// the call-time Browser/Version reads survive the template split.
func TestRealmPerRealmState(t *testing.T) {
	top := topLevelRealm(t, "")
	if err := top.RunScript(`
	window.ua = navigator.userAgent;
	window.secure = window.isSecureContext;
	window.origin = location.origin;
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := top.In.Global.Get("window")
	if v, _ := win.Obj().Get("ua"); v.ToString() != "Mozilla/5.0 (X11; Linux x86_64) Chrome/127.0.0.0" {
		t.Errorf("userAgent = %q", v.ToString())
	}
	if v, _ := win.Obj().Get("secure"); !v.Truthy() {
		t.Error("https frame must be a secure context")
	}
	if v, _ := win.Obj().Get("origin"); v.ToString() != "https://example.org" {
		t.Errorf("origin = %q", v.ToString())
	}

	emb := embeddedRealm(t, "", "")
	if err := emb.RunScript(`window.href = location.href;`, ""); err != nil {
		t.Fatal(err)
	}
	winE, _ := emb.In.Global.Get("window")
	if v, _ := winE.Obj().Get("href"); v.ToString() != "https://widget.example/embed" {
		t.Errorf("embedded href = %q", v.ToString())
	}
}

// TestServiceWorkerRegistrationsIndependent verifies register() hands
// out a fresh registration per call instead of a snapshot-shared
// singleton: a mutation through one realm's registration must not
// appear in another realm, and subscribe() still gates on context.
func TestServiceWorkerRegistrationsIndependent(t *testing.T) {
	a := topLevelRealm(t, "")
	b := topLevelRealm(t, "")
	if err := a.RunScript(`
	navigator.serviceWorker.register('/sw.js').then(function (reg) { reg.planted = 1; });
	navigator.serviceWorker.ready.then(function (reg) { reg.planted = 2; });
	`, ""); err != nil {
		t.Fatal(err)
	}
	if err := b.RunScript(`
	window.saw = 'none';
	navigator.serviceWorker.register('/sw.js').then(function (reg) {
		window.saw = typeof reg.planted;
		return reg.pushManager.subscribe();
	});
	navigator.serviceWorker.ready.then(function (reg) { window.sawReady = typeof reg.planted; });
	`, ""); err != nil {
		t.Fatal(err)
	}
	win, _ := b.In.Global.Get("window")
	if v, _ := win.Obj().Get("saw"); v.ToString() != "undefined" {
		t.Errorf("registration shared across realms: typeof planted = %q", v.ToString())
	}
	if v, _ := win.Obj().Get("sawReady"); v.ToString() != "undefined" {
		t.Errorf("ready registration shared across realms: typeof planted = %q", v.ToString())
	}
	if invs := b.Rec.ByKind(KindInvocation); len(invs) != 1 || invs[0].API != "pushManager.subscribe" || invs[0].Blocked {
		t.Errorf("subscribe via fresh registration: %+v", invs)
	}
}

// probeCorpus exercises the instrumented surface broadly — promise
// chains, callbacks, constructors, errors, handlers — so realms with
// and without a shared compile cache are compared over realistic probe
// scripts.
var probeCorpus = []string{
	`navigator.permissions.query({name: 'camera'}).then(function (s) { window.state = s.state; });`,
	`navigator.mediaDevices.getUserMedia({audio: true, video: true}).catch(function () {});`,
	`for (var i = 0; i < 3; i++) { navigator.clipboard.writeText('x' + i); }
	 document.featurePolicy.allowedFeatures();
	 window.n = document.featurePolicy.features().length;`,
	`var probe = function (names) {
		for (var i = 0; i < names.length; i++) {
			navigator.permissions.query({name: names[i]}).then(function (s) {
				window.last = s.name + ':' + s.state;
			});
		}
	};
	probe(['geolocation', 'camera', 'notifications']);`,
	`navigator.geolocation.getCurrentPosition(function (pos) { window.lat = pos.coords.latitude; });
	 navigator.getBattery().then(function (b) { window.level = b.level; });`,
	`try { var g = new Gyroscope(); g.start(); } catch (e) { window.err = 'caught'; }
	 document.getElementById('btn').addEventListener('click', function () {
		navigator.mediaDevices.getUserMedia({audio: true});
	 });`,
	`document.browsingTopics(); document.requestStorageAccess(); document.hasStorageAccess();
	 navigator.serviceWorker.register('/sw.js').then(function (reg) { return reg.pushManager.subscribe(); });`,
	`var el = document.createElement('video');
	 el.play(); el.requestFullscreen(); el.requestPictureInPicture();
	 new PaymentRequest([], {}).canMakePayment();`,
}

// TestCompiledRealmRecordsIdentical runs every probe through a realm
// that compiles its own scripts and one sharing a compile cache, and
// requires byte-identical recorded invocations: sharing compiled
// programs across realms must leak no state between them.
func TestCompiledRealmRecordsIdentical(t *testing.T) {
	compileCache := script.NewCompileCache()
	for i, src := range probeCorpus {
		own := topLevelRealm(t, "camera=(), geolocation=self")
		shared := topLevelRealm(t, "camera=(), geolocation=self")
		shared.CompileScript = compileCache.Compile

		url := fmt.Sprintf("https://cdn.example/probe%d.js", i)
		errOwn := own.RunScript(src, url)
		errShared := shared.RunScript(src, url)
		if (errOwn == nil) != (errShared == nil) {
			t.Fatalf("probe %d: error mismatch: own=%v shared=%v", i, errOwn, errShared)
		}
		if err := own.FireEvent("click"); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if err := shared.FireEvent("click"); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}

		want, err := json.Marshal(own.Rec.Invocations)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(shared.Rec.Invocations)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("probe %d: recorded invocations differ\nown:    %s\nshared: %s", i, want, got)
		}
	}
	if stats := compileCache.Stats(); stats.Misses == 0 {
		t.Error("compile cache never compiled anything")
	}
}

// mutationProbe writes to every corner of the shared surface a page
// script can reach: host objects, nested namespaces, constructor
// statics, the snapshot's promise, builtin namespaces, Object.assign in
// both directions, and finally the global bindings themselves.
const mutationProbe = `
navigator.userAgent = 'evil/1.0';
navigator.planted = 1;
navigator.webdriver = true;
navigator.permissions.query = function () { return 'hijacked'; };
navigator.permissions.extra = 'x';
location.href = 'https://evil.example/';
location.hash = '#pwned';
window.isSecureContext = false;
window.planted = 'w';
self.viaSelf = 1;
globalThis.viaGlobalThis = 2;
Notification.permission = 'granted';
Notification.requestPermission = null;
document.body.tagName = 'HIJACKED';
document.body.planted = true;
document.cookie = 'session=1';
navigator.serviceWorker.ready.then(function (reg) { reg.planted = 1; reg.pushManager.planted = 2; });
navigator.serviceWorker.ready.__state = 'rejected';
Math.floor = function (x) { return x; };
Math.planted = 1;
JSON.stringify = null;
JSON.planted = 1;
var merged = Object.assign({}, navigator, location, document.body, Notification);
Object.assign(navigator.mediaDevices, location, document.body);
Object.assign(window, navigator.permissions);
Object.assign(document, {cookie: 'c', body: null});
window.ok = navigator.planted === 1 && navigator.permissions.query() === 'hijacked' &&
	location.hash === '#pwned' && Notification.permission === 'granted' &&
	document.body === null && Math.floor(1.5) === 1.5 && window.viaSelf === 1 &&
	navigator.mediaDevices.planted === true && window.extra === 'x';
navigator = 'shadowed';
Object = null;
`

// surfaceFingerprint renders every global of a realm: each object's
// class, callability and keys, recursively, plus the binding's JSON.
func surfaceFingerprint(r *Realm) string {
	var b strings.Builder
	seen := map[*script.Object]bool{}
	var walk func(v script.Value)
	walk = func(v script.Value) {
		switch v.Kind() {
		case script.KindObject:
			o := v.Obj()
			if seen[o] {
				fmt.Fprintf(&b, "<seen %s>", o.Class)
				return
			}
			seen[o] = true
			fmt.Fprintf(&b, "%s(call=%t){", o.Class, o.Call != nil)
			for _, k := range o.Keys() {
				pv, _ := o.Get(k)
				b.WriteString(k + ":")
				walk(pv)
				b.WriteString(",")
			}
			b.WriteString("}")
		case script.KindArray:
			b.WriteString("[")
			for _, e := range v.Arr().Elems {
				walk(e)
				b.WriteString(",")
			}
			b.WriteString("]")
		default:
			b.WriteString(v.TypeOf() + ":" + v.ToString())
		}
	}
	for _, name := range surfaceSnapshot().Names() {
		v, _ := r.In.Global.Get(name)
		b.WriteString(name + " = ")
		walk(v)
		b.WriteString(" json=" + script.JSONString(v) + "\n")
	}
	return b.String()
}

// TestSurfaceImmutableUnderConcurrency is the immutability audit of
// the shared surface snapshot: eight goroutines stamp realms from it
// and run a mutation-heavy probe, with and without a shared compile
// cache, while the race detector watches the shared frozen graph. A
// fresh realm stamped afterwards must fingerprint exactly as one
// stamped before.
func TestSurfaceImmutableUnderConcurrency(t *testing.T) {
	doc := topLevelRealm(t, "").Doc
	before := surfaceFingerprint(NewRealm(doc, "https://example.org/"))
	cache := script.NewCompileCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r := NewRealm(doc, "https://example.org/")
				if (g+i)%2 == 0 {
					r.CompileScript = cache.Compile
				}
				if err := r.RunScript(mutationProbe, ""); err != nil {
					t.Errorf("goroutine %d realm %d: %v", g, i, err)
					return
				}
				win, _ := r.In.Global.Get("window")
				if ok, _ := win.Obj().Get("ok"); !ok.Truthy() {
					t.Errorf("goroutine %d realm %d: probe did not observe its own writes", g, i)
					return
				}
				if surfaceFingerprint(r) == before {
					t.Errorf("goroutine %d realm %d: fingerprint blind to the probe's writes", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if after := surfaceFingerprint(NewRealm(doc, "https://example.org/")); after != before {
		t.Errorf("shared surface changed under concurrent realms:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
