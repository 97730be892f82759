// Fingerprint demonstrates the §4.1.1 observation the paper raises but
// does not exploit: "permission lists could fingerprint browsers and
// versions". A page script retrieves document.featurePolicy.features()
// — exactly what 482,309 measured contexts do — and the observer maps
// the returned surface back to candidate engine versions.
//
//	go run ./examples/fingerprint
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"

	"permodyssey/internal/browser"
	"permodyssey/internal/origin"
	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
	"permodyssey/internal/webapi"
)

func main() {
	// 1) A tracking script harvests the full permission surface.
	fetcher := browser.MapFetcher{
		"https://victim.example/": {Status: 200, Header: http.Header{}, Body: `
			<script src="https://tracker.example/fp.js"></script>`},
		"https://tracker.example/fp.js": {Status: 200, Body: `
			var surface = document.featurePolicy.features();
			window.__exfil = surface.join(',');
		`},
	}
	b := browser.New(fetcher, browser.DefaultOptions())
	if _, err := b.Visit(context.Background(), "https://victim.example/"); err != nil {
		fmt.Fprintln(os.Stderr, "fingerprint:", err)
		os.Exit(1)
	}

	// 2) Re-run the harvest against realms emulating different browser
	// versions and identify each from the surface alone.
	fmt.Println("observed permission surface → identified engine versions")
	for _, version := range []int{100, 114, 115, 127} {
		doc := policy.NewTopLevel(origin.MustParse("https://victim.example"), policy.Policy{})
		realm := webapi.NewRealm(doc, "https://victim.example/")
		realm.SetBrowser(permissions.Chromium, version)
		if err := realm.RunScript(`window.__exfil = document.featurePolicy.features().join(',');`, ""); err != nil {
			fmt.Fprintln(os.Stderr, "fingerprint:", err)
			os.Exit(1)
		}
		win, _ := realm.In.Global.Get("window")
		exfil, _ := win.Obj().Get("__exfil")
		surface := strings.Split(exfil.ToString(), ",")
		ranges := permissions.IdentifyFromSurface(surface)
		var labels []string
		for _, r := range ranges {
			labels = append(labels, r.String())
		}
		fmt.Printf("  actual Chromium %d (%2d features) → %s\n",
			version, len(surface), strings.Join(labels, ", "))
	}
	fmt.Printf("\ndistinct surfaces across tracked engines/versions: %d\n", permissions.SurfaceEntropy())
}
