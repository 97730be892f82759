package webapi_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"permodyssey/internal/origin"
	"permodyssey/internal/policy"
	"permodyssey/internal/synthweb"
	"permodyssey/internal/webapi"
)

// probeGoldenPath holds the expected observations for the probe corpus.
// They were recorded from the original tree-walking interpreter, before
// the compiled engine became the only one, and are the oracle for the
// instrumented surface: do not regenerate them from the engine under
// test.
const probeGoldenPath = "testdata/probe_golden.json"

// goldenInvocation is the recorded shape of one instrumented call.
type goldenInvocation struct {
	API            string   `json:"api"`
	Kind           string   `json:"kind"`
	Permissions    []string `json:"permissions,omitempty"`
	AllPermissions bool     `json:"all_permissions,omitempty"`
	Blocked        bool     `json:"blocked,omitempty"`
	Deprecated     bool     `json:"deprecated,omitempty"`
	ScriptURL      string   `json:"script_url,omitempty"`
	Stack          string   `json:"stack"`
}

// goldenScript is one corpus script's observable outcome: its run
// error, the first event-handler error, and every recorded invocation.
type goldenScript struct {
	Name        string             `json:"name"`
	Err         string             `json:"err,omitempty"`
	EventErr    string             `json:"event_err,omitempty"`
	Invocations []goldenInvocation `json:"invocations"`
}

// probeDocHeader blocks camera and restricts geolocation, so the corpus
// exercises both the allowed and the policy-blocked host paths.
const probeDocHeader = "camera=(), geolocation=self"

// runProbeCorpus runs every synthweb host-page script and every widget
// script in a fresh realm bound to one fixed top-level document, then
// fires the settled-page and interaction events the browser fires.
func runProbeCorpus(t *testing.T) []goldenScript {
	t.Helper()
	declared, _, err := policy.ParsePermissionsPolicy(probeDocHeader)
	if err != nil {
		t.Fatal(err)
	}
	doc := policy.NewTopLevel(origin.MustParse("https://example.org"), declared)
	run := func(name, src, scriptURL string) goldenScript {
		r := webapi.NewRealm(doc, "https://example.org/")
		g := goldenScript{Name: name, Invocations: []goldenInvocation{}}
		if err := r.RunScript(src, scriptURL); err != nil {
			g.Err = err.Error()
		}
		for _, ev := range []string{"load", "DOMContentLoaded", "click", "scroll"} {
			if err := r.FireEvent(ev); err != nil && g.EventErr == "" {
				g.EventErr = err.Error()
			}
		}
		for _, inv := range r.Rec.Invocations {
			perms := inv.Permissions
			if len(perms) == 0 {
				perms = nil // the JSON round trip does not keep empty lists
			}
			g.Invocations = append(g.Invocations, goldenInvocation{
				API: inv.API, Kind: inv.Kind.String(), Permissions: perms,
				AllPermissions: inv.AllPermissions, Blocked: inv.Blocked,
				Deprecated: inv.Deprecated, ScriptURL: inv.ScriptURL, Stack: inv.Stack,
			})
		}
		return g
	}
	var out []goldenScript
	for _, hs := range synthweb.HostScripts {
		out = append(out, run("host/"+hs.Name, hs.Body, hs.URL))
	}
	for _, w := range synthweb.Catalog {
		out = append(out, run("widget/"+w.Site+w.Path, w.Script, ""))
	}
	return out
}

// TestProbeCorpusGolden checks the realm against the recorded oracle:
// every synthweb script must record the same invocations, in the same
// order with the same attribution and stacks, and fail the same way.
func TestProbeCorpusGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(probeGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenScript
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := runProbeCorpus(t)
	if len(got) != len(want) {
		t.Fatalf("corpus has %d scripts, golden has %d", len(got), len(want))
	}
	total := 0
	for i := range want {
		total += len(want[i].Invocations)
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.MarshalIndent(got[i], "", "  ")
			w, _ := json.MarshalIndent(want[i], "", "  ")
			t.Errorf("%s diverges from golden:\ngot:  %s\nwant: %s", want[i].Name, g, w)
		}
	}
	if total == 0 {
		t.Fatal("golden corpus records no invocations")
	}
}
