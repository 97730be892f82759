package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"permodyssey/internal/bundle"
	"permodyssey/internal/store"
)

const smokeSites = "60"

// benchRun runs the benchmark in-process and returns its result line
// and report digest.
func benchRun(t *testing.T, root string, args ...string) (result, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), append(args, "-root", root), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	digest := regexp.MustCompile(`"report_digest":"([0-9a-f]*)"`).FindStringSubmatch(stdout.String())
	if digest == nil {
		t.Fatalf("no report digest in provenance:\n%s", stdout.String())
	}
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return res, digest[1], code
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	return endToEnd, perLayer
}

func emitted(res result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s metrics:\n got  %v\n want %v", what, got, want)
	}
}

// TestSmokeEveryWorkload runs each workload on a tiny population in
// both modes, checks the gate passes, and that the metrics emitted are
// exactly those BENCHMARK.json declares, with the same units.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	root := t.TempDir()
	digests := map[string]string{}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			res, digest, code := benchRun(t, root, "-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", trace, "-sites", smokeSites)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 2*60 {
				t.Fatalf("%s trace %s: exit %d, result %+v", w.name, trace, code, res)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			sameSet(t, w.name+" trace "+trace, emitted(res), want)
			if prev, ok := digests[w.name]; ok && prev != digest {
				t.Errorf("%s: report digest %s in one run, %s in another", w.name, prev, digest)
			}
			digests[w.name] = digest
		}
	}
	if digests["crawl-live"] != digests["crawl-offline"] {
		t.Errorf("offline replay report %s differs from the live crawl's %s", digests["crawl-offline"], digests["crawl-live"])
	}
	if digests["crawl-chaos"] != digests["replay-bundle"] {
		t.Errorf("replayed bundle report %s differs from the chaos crawl's %s", digests["replay-bundle"], digests["crawl-chaos"])
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "trace", "crawl-live-seed3.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "nope", "-root", t.TempDir()}, &out, &out); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
}

// sealedEnv seals a tiny chaos crawl and returns the replay env.
func sealedEnv(t *testing.T) (*env, workload) {
	t.Helper()
	w, _ := lookup("replay-bundle")
	dir := t.TempDir()
	e := &env{seed: 5, sites: 40, dir: dir, iter: filepath.Join(dir, "iter")}
	b := &bench{w: w, e: e}
	if err := b.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, w
}

func TestGateRejectsCorruptedSealedReport(t *testing.T) {
	e, w := sealedEnv(t)
	out, err := w.run(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.checkOutput(out); err != nil {
		t.Fatalf("intact bundle failed the gate: %v", err)
	}

	// A replay that disagrees with the sealed report fails the gate.
	bad := *out
	bad.report = strings.Replace(out.report, "sites", "sitez", 1)
	if err := e.checkOutput(&bad); err == nil {
		t.Error("a replayed report differing from the sealed one passed the gate")
	}

	// A corrupted sealed report fails verification before analysis.
	path := filepath.Join(e.bundle, bundle.ReportName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(context.Background(), e, nil); err == nil {
		t.Error("a bundle with a corrupted sealed report replayed without error")
	}
}

func TestGateRejectsDroppedOrMisclassifiedRecord(t *testing.T) {
	e, w := sealedEnv(t)
	out, err := w.run(context.Background(), e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecords(out.ds, e.truth); err != nil {
		t.Fatalf("intact dataset failed the record gate: %v", err)
	}

	dropped := &store.Dataset{Records: out.ds.Records[1:]}
	if err := checkRecords(dropped, e.truth); err == nil {
		t.Error("a dataset missing one record passed the gate")
	}

	flipped := &store.Dataset{Records: append([]store.SiteRecord(nil), out.ds.Records...)}
	for i, r := range flipped.Records {
		if r.Failure == store.FailureUnreachable || r.Failure == store.FailureEphemeral {
			flipped.Records[i].Failure = store.FailureMinor
			break
		}
		if i == len(flipped.Records)-1 {
			t.Fatal("no failed record to misclassify")
		}
	}
	if err := checkRecords(flipped, e.truth); err == nil {
		t.Error("a misclassified record passed the gate")
	}
}
