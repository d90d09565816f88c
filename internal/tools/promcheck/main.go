// Command promcheck scrapes a /metrics endpoint and validates it with the
// strict parser from internal/obs: exposition-format violations (bad
// escaping, duplicate series, histograms whose cumulative buckets decrease
// or lack a +Inf bound) fail loudly, and every histogram family gets an
// explicit _bucket/_sum/_count coherence pass. CI boots coyote-serve,
// points promcheck at it, and requires the families every subsystem is
// expected to export — LP solver, session, worker pool, HTTP plane and
// event-log counters — a live end-to-end check that the
// observability plane stays both present and well-formed.
//
// Usage:
//
//	promcheck -url http://localhost:8080/metrics \
//	    -warm http://localhost:8080/state \
//	    -require coyote_lp_solves_total,coyote_http_requests_total
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
)

func main() {
	var (
		url     = flag.String("url", "http://localhost:8080/metrics", "metrics endpoint to scrape")
		warm    = flag.String("warm", "", "comma-separated URLs to GET before scraping (so HTTP families have samples)")
		require = flag.String("require", "", "comma-separated metric family names that must be present")
		samples = flag.String("require-samples", "", "comma-separated family names that must have at least one sample")
		timeout = flag.Duration("timeout", 30*time.Second, "total time to wait for the endpoint to come up")
		verbose = flag.Bool("v", false, "list every family scraped")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(*timeout)

	for _, w := range splitList(*warm) {
		if err := hitUntil(client, w, deadline); err != nil {
			fatal(fmt.Errorf("warm-up GET %s: %w", w, err))
		}
	}

	resp, err := getUntil(client, *url, deadline)
	if err != nil {
		fatal(fmt.Errorf("GET %s: %w", *url, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: status %s", *url, resp.Status))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		fatal(fmt.Errorf("GET %s: content type %q, want text/plain", *url, ct))
	}

	families, err := obs.ParseProm(resp.Body)
	if err != nil {
		fatal(fmt.Errorf("invalid exposition from %s: %w", *url, err))
	}
	// ParseProm already validates histograms; re-run the coherence check
	// explicitly so the report names it (cumulative buckets monotone,
	// +Inf present, _count == +Inf bucket) and counts what it covered.
	if err := obs.ValidateHistograms(families); err != nil {
		fatal(fmt.Errorf("histogram coherence from %s: %w", *url, err))
	}

	histograms := 0
	byName := make(map[string]obs.ParsedFamily, len(families))
	for _, f := range families {
		byName[f.Name] = f
		if f.Type == "histogram" {
			histograms++
		}
		if *verbose {
			fmt.Printf("%-50s %-9s %d samples\n", f.Name, f.Type, len(f.Samples))
		}
	}

	var missing []string
	for _, name := range splitList(*require) {
		if _, ok := byName[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, name := range splitList(*samples) {
		f, ok := byName[name]
		if !ok {
			missing = append(missing, name)
		} else if len(f.Samples) == 0 {
			fatal(fmt.Errorf("family %s is exposed but has no samples", name))
		}
	}
	if len(missing) > 0 {
		fatal(fmt.Errorf("missing families: %s", strings.Join(missing, ", ")))
	}
	fmt.Printf("promcheck: %s OK — %d families valid, %d histograms coherent\n", *url, len(families), histograms)
}

// getUntil retries the GET until it succeeds or the deadline passes, so the
// scrape can start while the server is still computing its initial
// configuration.
func getUntil(client *http.Client, url string, deadline time.Time) (*http.Response, error) {
	for {
		resp, err := client.Get(url)
		if err == nil {
			return resp, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func hitUntil(client *http.Client, url string, deadline time.Time) error {
	resp, err := getUntil(client, url, deadline)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "promcheck:", err)
	os.Exit(1)
}
