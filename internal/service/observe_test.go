package service

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"graphpi/internal/telemetry"
)

// get fetches a URL and returns the response with its body read out, for
// tests that assert on headers as well as payloads.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, body
}

// TestServiceProfilePerTier: ?profile=1 must return per-level
// predicted-vs-actual stats on both execution tiers, leave the count
// bit-identical, survive a plan-cache hit (the hot path re-enters the cached
// configuration with collection on), and stay absent without the flag.
func TestServiceProfilePerTier(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	// k4 is a clique, so both tiers are real kernels rather than silent
	// interpreter fallbacks.
	var ref queryResult
	if code := getJSON(t, base+"/count?graph=ba&pattern=k4", &ref); code != 200 {
		t.Fatalf("reference count: status %d", code)
	}
	if ref.Profile != nil {
		t.Fatal("profile payload present without ?profile=1")
	}

	for _, tc := range []struct{ tier, label string }{
		{"interpret", "interpreted"},
		{"generated", "generated"},
	} {
		url := base + "/count?graph=ba&pattern=k4&tier=" + tc.tier + "&profile=1"
		var qr queryResult
		if code := getJSON(t, url, &qr); code != 200 {
			t.Fatalf("%s: status %d", url, code)
		}
		if qr.Count != ref.Count {
			t.Errorf("tier %s profiled count %d, want %d", tc.tier, qr.Count, ref.Count)
		}
		p := qr.Profile
		if p == nil {
			t.Fatalf("tier %s: no profile payload", tc.tier)
		}
		if p.Tier != tc.label || p.Tier != qr.Tier {
			t.Errorf("tier %s: profile labels %q, result %q, want %q", tc.tier, p.Tier, qr.Tier, tc.label)
		}
		if len(p.Levels) != 4 {
			t.Fatalf("tier %s: %d profiled levels, want 4", tc.tier, len(p.Levels))
		}
		if p.Levels[0].Scans == 0 {
			t.Errorf("tier %s: no level-0 scans recorded", tc.tier)
		}
		if p.Drift == nil {
			t.Fatalf("tier %s: no drift report", tc.tier)
		}
		if len(p.Drift.Levels) != 4 || p.Drift.PredictedCost <= 0 {
			t.Errorf("tier %s: drift = %d levels, cost %v", tc.tier, len(p.Drift.Levels), p.Drift.PredictedCost)
		}
		var sawActual bool
		for _, ld := range p.Drift.Levels {
			if !ld.CoveredByIEP && ld.ActualIntersections+ld.ActualCandidates > 0 {
				sawActual = true
			}
		}
		if !sawActual {
			t.Errorf("tier %s: drift report carries no actual counters", tc.tier)
		}
	}

	// The repeat is a plan-cache hit and must still profile.
	var warm queryResult
	if code := getJSON(t, base+"/count?graph=ba&pattern=k4&profile=1", &warm); code != 200 {
		t.Fatal("warm profiled count failed")
	}
	if warm.Cache != "hit" || warm.Profile == nil || len(warm.Profile.Levels) != 4 {
		t.Fatalf("warm profiled query = cache %q, profile %+v", warm.Cache, warm.Profile)
	}
}

// TestServiceProfileOnCluster: the wire protocol reduces counts, not
// counters, so a profiled cluster query degrades to predictions-only with an
// explanatory note instead of failing or silently returning zeros as actuals.
func TestServiceProfileOnCluster(t *testing.T) {
	g := baFixture(300, 4, 7)
	addrs := startWorkers(t, g, 2)
	s := newTestServer(t, g, Options{ClusterAddrs: addrs, MaxConcurrent: 1})

	qr, err := s.runCount(context.Background(), queryRequest{
		graphName:   "ba",
		patternSpec: "house",
		useIEP:      true,
		backendName: "cluster",
		profile:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := qr.Profile
	if p == nil {
		t.Fatal("cluster profiled query returned no profile payload")
	}
	if len(p.Levels) != 0 {
		t.Errorf("cluster profile carries %d levels of actuals; the wire reduces counts only", len(p.Levels))
	}
	if p.Note == "" {
		t.Error("cluster profile carries no explanatory note")
	}
	if p.Drift == nil || p.Drift.PredictedCost <= 0 {
		t.Errorf("cluster profile should still carry predictions, got %+v", p.Drift)
	}
}

// TestServiceExplain: GET /explain reports the plan — schedule, tier, cost
// predictions — without executing anything, and its repeat rides the plan
// cache.
func TestServiceExplain(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	var cold explainResult
	if code := getJSON(t, base+"/explain?graph=ba&pattern=house", &cold); code != 200 {
		t.Fatalf("explain: status %d", code)
	}
	if cold.Graph != "ba" || cold.Schedule == "" || cold.Tier == "" || cold.Cache != "miss" {
		t.Fatalf("explain = %+v", cold)
	}
	if cold.Predicted == nil || len(cold.Predicted.Levels) != 5 || cold.PredictedCost <= 0 {
		t.Fatalf("explain predictions = %+v", cold.Predicted)
	}
	for _, ld := range cold.Predicted.Levels {
		if ld.ActualIntersections != 0 || ld.Valid {
			t.Errorf("explain level %d carries actuals (%+v); nothing ran", ld.Level, ld)
		}
	}

	var warm explainResult
	if code := getJSON(t, base+"/explain?graph=ba&pattern=house", &warm); code != 200 {
		t.Fatal("warm explain failed")
	}
	if warm.Cache != "hit" || warm.Schedule != cold.Schedule {
		t.Fatalf("warm explain = cache %q schedule %q, cold schedule %q", warm.Cache, warm.Schedule, cold.Schedule)
	}

	if code := getJSON(t, base+"/explain?graph=ba&pattern=nonsense", nil); code != 400 {
		t.Fatalf("bad pattern explain: status %d, want 400", code)
	}
	if code := getJSON(t, base+"/explain?graph=missing&pattern=house", nil); code != 404 {
		t.Fatalf("missing graph explain: status %d, want 404", code)
	}
}

// TestServiceMetricsFormats: /metrics is never cacheable, serves JSON by
// default, renders valid Prometheus text exposition behind ?format=prometheus
// (validated with the same promtool-style checker CI uses), and rejects
// unknown formats.
func TestServiceMetricsFormats(t *testing.T) {
	g := baFixture(300, 4, 7)
	s := newTestServer(t, g, Options{})
	base := startHTTP(t, s)

	// Run one profiled count so the process-level counters and the latency
	// histogram hold nonzero samples.
	if code := getJSON(t, base+"/count?graph=ba&pattern=p3&profile=1", nil); code != 200 {
		t.Fatal("seed count failed")
	}

	resp, _ := get(t, base+"/metrics")
	if resp.StatusCode != 200 || resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatalf("GET /metrics: status %d, Cache-Control %q", resp.StatusCode, resp.Header.Get("Cache-Control"))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics Content-Type = %q, want JSON", ct)
	}

	resp, body := get(t, base+"/metrics?format=prometheus")
	if resp.StatusCode != 200 || resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatalf("prometheus /metrics: status %d, Cache-Control %q", resp.StatusCode, resp.Header.Get("Cache-Control"))
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("prometheus Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	if err := telemetry.CheckExposition(body); err != nil {
		t.Fatalf("exposition fails validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"graphpi_uptime_seconds ",
		"graphpi_jobs_total{state=\"done\"}",
		"graphpi_count_queries_total ",
		"graphpi_profiled_runs_total ",
		"graphpi_query_seconds_bucket{",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition is missing %q", want)
		}
	}

	resp, _ = get(t, base+"/metrics?format=xml")
	if resp.StatusCode != 400 {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestServicePprofGate: the pprof surface exists only when the operator
// turned it on.
func TestServicePprofGate(t *testing.T) {
	g := baFixture(100, 3, 1)
	closed := startHTTP(t, newTestServer(t, g, Options{}))
	if resp, _ := get(t, closed+"/debug/pprof/"); resp.StatusCode != 404 {
		t.Fatalf("pprof without the flag: status %d, want 404", resp.StatusCode)
	}
	open := startHTTP(t, newTestServer(t, g, Options{EnablePprof: true}))
	if resp, _ := get(t, open+"/debug/pprof/"); resp.StatusCode != 200 {
		t.Fatalf("pprof with the flag: status %d, want 200", resp.StatusCode)
	}
}
