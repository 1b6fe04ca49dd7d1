package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/models"
	"geomob/internal/synth"
	"geomob/internal/tweetdb"
)

// bootServer builds the single-node server over store with hourly
// buckets, failing the test on any boot error.
func bootServer(t *testing.T, store *tweetdb.Store, snapDir string) *server {
	t.Helper()
	s, err := newServer(store, time.Hour, snapDir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer builds a server over a small store holding a generated
// corpus, backfilled into the ring at boot.
func newTestServer(t *testing.T) *server {
	t.Helper()
	store, err := tweetdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.NewGenerator(synth.DefaultConfig(800, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	tweets, err := gen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(tweets); err != nil {
		t.Fatal(err)
	}
	return bootServer(t, store, "")
}

func TestHandleTweetsUserFilter(t *testing.T) {
	s := newTestServer(t)
	rec := httptest.NewRecorder()
	s.handleTweets(rec, httptest.NewRequest("GET", "/tweets?user=3&limit=5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var tweets []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &tweets); err != nil {
		t.Fatal(err)
	}
	if len(tweets) == 0 || len(tweets) > 5 {
		t.Fatalf("got %d tweets", len(tweets))
	}
	for _, tw := range tweets {
		if tw["user"].(float64) != 3 {
			t.Errorf("wrong user: %v", tw["user"])
		}
	}
}

func TestHandleTweetsTimeWindow(t *testing.T) {
	s := newTestServer(t)
	rec := httptest.NewRecorder()
	s.handleTweets(rec, httptest.NewRequest("GET",
		"/tweets?from=2013-10-01T00:00:00Z&to=2013-10-02T00:00:00Z&limit=100000", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var tweets []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &tweets); err != nil {
		t.Fatal(err)
	}
	loMS := float64(1380585600000) // 2013-10-01 UTC in ms
	hiMS := loMS + 86400000
	for _, tw := range tweets {
		ts := tw["ts"].(float64)
		if ts < loMS || ts >= hiMS {
			t.Fatalf("tweet outside window: %v", ts)
		}
	}
}

func TestHandleTweetsBadInputs(t *testing.T) {
	s := newTestServer(t)
	for _, url := range []string{
		"/tweets?user=notanumber",
		"/tweets?from=yesterday",
		"/tweets?to=tomorrow",
		"/tweets?limit=0",
		"/tweets?limit=-3",
	} {
		rec := httptest.NewRecorder()
		s.handleTweets(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

func TestHandleDensityPNG(t *testing.T) {
	s := newTestServer(t)
	rec := httptest.NewRecorder()
	s.handleDensity(rec, httptest.NewRequest("GET", "/density.png?nx=60&ny=48", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/png" {
		t.Errorf("content type %q", ct)
	}
	img, err := png.Decode(rec.Body)
	if err != nil {
		t.Fatalf("invalid png: %v", err)
	}
	if img.Bounds().Dx() != 60 || img.Bounds().Dy() != 48 {
		t.Errorf("dimensions %v", img.Bounds())
	}
}

// getJSON routes a request through the full mux and decodes the JSON body.
func getJSON(t *testing.T, s *server, url string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	var body map[string]any
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: invalid JSON: %v", url, err)
		}
	}
	return rec.Code, body
}

func TestHandleHealthz(t *testing.T) {
	s := newTestServer(t)
	code, body := getJSON(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("status field = %v", body["status"])
	}
	if body["tweets"].(float64) <= 0 {
		t.Errorf("tweets = %v", body["tweets"])
	}
	if body["generation"] == "" {
		t.Error("generation missing")
	}
}

// TestHandleDensityBadParams: invalid grid dimensions are a 400, not a
// silent fallback to the defaults.
func TestHandleDensityBadParams(t *testing.T) {
	s := newTestServer(t)
	for _, url := range []string{
		"/density.png?nx=0",
		"/density.png?ny=-3",
		"/density.png?nx=notanumber",
		"/density.png?ny=2001",
	} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

func TestV1Stats(t *testing.T) {
	s := newTestServer(t)
	code, body := getJSON(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["users"].(float64) != 800 {
		t.Errorf("users = %v, want 800", body["users"])
	}
	if body["tweets"].(float64) < body["users"].(float64) {
		t.Errorf("tweets = %v below user count", body["tweets"])
	}
	if body["cached"] != false {
		t.Error("first request reported cached")
	}
	_, body2 := getJSON(t, s, "/v1/stats")
	if body2["cached"] != true {
		t.Error("repeated request not served from the snapshot cache")
	}
}

// TestV1StatsWindow: a windowed stats request only sees in-window tweets.
func TestV1StatsWindow(t *testing.T) {
	s := newTestServer(t)
	_, full := getJSON(t, s, "/v1/stats")
	code, windowed := getJSON(t, s,
		"/v1/stats?from=2013-10-01T00:00:00Z&to=2013-11-01T00:00:00Z")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if windowed["tweets"].(float64) >= full["tweets"].(float64) {
		t.Errorf("windowed tweets = %v, full = %v: window did not restrict",
			windowed["tweets"], full["tweets"])
	}
	first, last := windowed["first"].(string), windowed["last"].(string)
	if first < "2013-10-01" || last >= "2013-11-01" {
		t.Errorf("window not honoured: [%s, %s]", first, last)
	}
}

func TestV1Population(t *testing.T) {
	s := newTestServer(t)
	code, body := getJSON(t, s, "/v1/population?scale=metropolitan")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	areas := body["areas"].([]any)
	users := body["twitter_users"].([]any)
	if len(areas) == 0 || len(areas) != len(users) {
		t.Fatalf("%d areas, %d user counts", len(areas), len(users))
	}
	if body["c"].(float64) <= 0 {
		t.Errorf("rescaling factor c = %v", body["c"])
	}
	if body["radius"].(float64) <= 0 {
		t.Errorf("radius = %v", body["radius"])
	}
	// An explicit radius overrides the default and is reflected back.
	code, body = getJSON(t, s, "/v1/population?scale=metropolitan&radius=500")
	if code != http.StatusOK {
		t.Fatalf("radius=500: status %d", code)
	}
	if body["radius"].(float64) != 500 {
		t.Errorf("radius = %v, want 500", body["radius"])
	}
}

func TestV1Models(t *testing.T) {
	s := newTestServer(t)
	code, body := getJSON(t, s, "/v1/models?scale=national")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	fits := body["fits"].([]any)
	if len(fits) != 3 {
		t.Fatalf("%d fits, want 3 (gravity4, gravity2, radiation)", len(fits))
	}
	for _, f := range fits {
		fit := f.(map[string]any)
		if fit["name"] == "" || fit["metrics"] == nil {
			t.Errorf("incomplete fit: %v", fit)
		}
	}
	if body["total_flow"].(float64) <= 0 {
		t.Errorf("total_flow = %v", body["total_flow"])
	}
}

// TestV1FlowsSnapshotCache is the caching acceptance test: /v1 answers
// never scan the store, a repeated request is served from the snapshot
// cache, and an ingest into the request's window invalidates it.
func TestV1FlowsSnapshotCache(t *testing.T) {
	s := newTestServer(t)
	scans := s.store.ScanCount()
	code, first := getJSON(t, s, "/v1/flows?scale=state")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first["cached"] != false {
		t.Error("first request reported cached")
	}
	if len(first["areas"].([]any)) == 0 {
		t.Error("no areas in flow response")
	}

	code, second := getJSON(t, s, "/v1/flows?scale=state")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if second["cached"] != true {
		t.Error("repeated request not served from the snapshot cache")
	}
	if got := s.store.ScanCount(); got != scans {
		t.Errorf("/v1 requests scanned the store: %d scans, want %d", got, scans)
	}
	if !reflect.DeepEqual(first["flows"], second["flows"]) {
		t.Error("cached flows differ from the computed ones")
	}

	// A different request computes its own snapshot...
	_, national := getJSON(t, s, "/v1/flows?scale=national")
	if national["cached"] != false {
		t.Error("different request served from an unrelated snapshot")
	}
	// ...and a write landing inside the window invalidates it.
	rec := httptest.NewRecorder()
	body := strings.NewReader(`{"id":1099511627776,"user":1099511627776,"ts":1380600000000,"lat":-33.87,"lon":151.21}` + "\n")
	s.routes().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	code, third := getJSON(t, s, "/v1/flows?scale=state")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if third["cached"] != true && third["cached"] != false {
		t.Fatal("missing cached field")
	}
	if third["cached"] == true {
		t.Error("stale snapshot served after the store changed")
	}
}

func TestV1BadParams(t *testing.T) {
	s := newTestServer(t)
	for _, url := range []string{
		"/v1/flows?scale=galactic",
		"/v1/population?scale=metropolitan&radius=-5",
		"/v1/population?scale=metropolitan&radius=abc",
		"/v1/models?from=notatime",
		"/v1/stats?from=2014-01-01T00:00:00Z&to=2013-01-01T00:00:00Z",
		// Scale-independent endpoints reject scale/radius instead of
		// silently ignoring them (and fragmenting the cache keys).
		"/v1/stats?scale=state",
		"/v1/stats?radius=500",
		// ParseFloat accepts NaN/Inf spellings; the validation must not.
		"/v1/population?scale=metropolitan&radius=NaN",
		"/v1/flows?scale=state&radius=%2BInf",
	} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

// TestV1EmptyWindow: a window containing no tweets is a 404 on every
// endpoint, not an epoch-dated answer, a model-fit 500, or a stale cache
// entry.
func TestV1EmptyWindow(t *testing.T) {
	s := newTestServer(t)
	for _, url := range []string{
		"/v1/stats?from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
		"/v1/population?scale=state&from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
		"/v1/models?scale=state&from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
		"/v1/flows?scale=state&from=1999-01-01T00:00:00Z&to=1999-02-01T00:00:00Z",
	} {
		rec := httptest.NewRecorder()
		s.routes().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, rec.Code)
		}
	}
}

// TestRouteTable pins the one mux builder's table across the modes: the
// /v1 API, health, metrics and traces everywhere; the store readers on a
// single node only; member federation on a coordinator only; the
// snapshot trigger only where snapshots are on; and no legacy /flows or
// /stats anywhere.
func TestRouteTable(t *testing.T) {
	empty := func() *tweetdb.Store {
		store, err := tweetdb.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	single := bootServer(t, empty(), "")
	snap := bootServer(t, empty(), t.TempDir())
	coord, _, _ := newClusterTestServer(t, 2)
	servers := []struct {
		name string
		s    *server
	}{{"single", single}, {"single+snapshots", snap}, {"coordinator", coord}}

	for _, rt := range []struct {
		method, path string
		on           [3]bool // single, single+snapshots, coordinator
	}{
		{"GET", "/healthz", [3]bool{true, true, true}},
		{"GET", "/metrics", [3]bool{true, true, true}},
		{"GET", "/v1/stats", [3]bool{true, true, true}},
		{"GET", "/v1/population", [3]bool{true, true, true}},
		{"GET", "/v1/models", [3]bool{true, true, true}},
		{"GET", "/v1/flows", [3]bool{true, true, true}},
		{"POST", "/v1/ingest", [3]bool{true, true, true}},
		{"GET", "/debug/traces", [3]bool{true, true, true}},
		{"GET", "/debug/traces/0123456789abcdef", [3]bool{true, true, true}},
		{"GET", "/tweets", [3]bool{true, true, false}},
		{"GET", "/density.png", [3]bool{true, true, false}},
		{"GET", "/metrics/cluster", [3]bool{false, false, true}},
		{"POST", "/v1/snapshot", [3]bool{false, true, false}},
		{"GET", "/flows", [3]bool{false, false, false}},
		{"GET", "/stats", [3]bool{false, false, false}},
	} {
		for i, sv := range servers {
			mux := sv.s.routes()
			req := httptest.NewRequest(rt.method, rt.path, nil)
			if _, pattern := mux.Handler(req); (pattern != "") != rt.on[i] {
				t.Errorf("%s: %s %s routed = %v, want %v", sv.name, rt.method, rt.path, pattern != "", rt.on[i])
			}
			if !rt.on[i] {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				if rec.Code != http.StatusNotFound {
					t.Errorf("%s: %s %s status %d, want 404", sv.name, rt.method, rt.path, rec.Code)
				}
			}
		}
	}
}

// TestWriteExecuteErrorStatus pins the status each execution failure
// maps to, through the wrapping the layers above the failure add.
func TestWriteExecuteErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"empty window", fmt.Errorf("core: stats: %w", core.ErrEmptyDataset), http.StatusNotFound},
		{"undefined fit", fmt.Errorf("evaluate Gravity 2Param: %w",
			fmt.Errorf("%w: log-scale pearson: constant input", models.ErrUndefinedFit)), http.StatusUnprocessableEntity},
		{"unmaterialised shape", live.ErrNotCovered, http.StatusNotImplemented},
		{"shutdown", fmt.Errorf("execute: %w", context.Canceled), http.StatusServiceUnavailable},
		{"degraded", &cluster.UnavailableError{Slots: []int{3}}, http.StatusServiceUnavailable},
		{"internal", errors.New("segment checksum mismatch"), http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeExecuteError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}
