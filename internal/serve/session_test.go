// End-to-end tests for the /v1/session analysis-session API: brush,
// incremental refinement (bitmap reuse vs from-scratch equivalence),
// cross-timestep particle tracking, rendered views, and the
// store-or-reject rule for partial scatter merges.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// sessPost POSTs a /v1/session path (parameters in the query string) and
// decodes the JSON response.
func sessPost(t *testing.T, ts *httptest.Server, path string, out any) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, string(raw), resp.Header
}

// queryCount runs /v1/query and returns the match count — the oracle the
// session's refinement algebra is checked against.
func queryCount(t *testing.T, ts *httptest.Server, step int, q string) uint64 {
	t.Helper()
	var body QueryBody
	path := fmt.Sprintf("/v1/query?step=%d&q=%s", step, url.QueryEscape(q))
	if code, raw := get(t, ts, path, &body); code != 200 {
		t.Fatalf("query %s: %d %s", q, code, raw)
	}
	return body.Matches
}

func selectPath(sid string, step int, q, extra string) string {
	p := fmt.Sprintf("/v1/session/%s/select?step=%d&q=%s", sid, step, url.QueryEscape(q))
	if extra != "" {
		p += "&" + extra
	}
	return p
}

func TestSessionBrushRefineTrackViews(t *testing.T) {
	_, ts := testServer(t, Config{})

	var created struct {
		ID string `json:"id"`
	}
	if code, raw, _ := sessPost(t, ts, "/v1/session", &created); code != 200 || created.ID == "" {
		t.Fatalf("create session: %d %s", code, raw)
	}
	sid := created.ID
	const step = 3

	// Brush: a fresh selection from one predicate.
	var sel SessionSelectBody
	if code, raw, _ := sessPost(t, ts, selectPath(sid, step, "px > 0.05", ""), &sel); code != 200 {
		t.Fatalf("select: %d %s", code, raw)
	}
	if !sel.Stored || sel.Partial || sel.Reused || sel.Matches == 0 {
		t.Fatalf("fresh select: %+v", sel)
	}
	if want := queryCount(t, ts, step, "px > 0.05"); sel.Matches != want {
		t.Fatalf("select matches %d, query oracle %d", sel.Matches, want)
	}

	// Refine (and): only the delta predicate evaluates; the stored bitmap
	// combines. The result must equal the full conjunction from scratch.
	var ref SessionSelectBody
	if code, raw, _ := sessPost(t, ts, selectPath(sid, step, "y < 0.5", "refine=and"), &ref); code != 200 {
		t.Fatalf("refine: %d %s", code, raw)
	}
	if !ref.Stored || !ref.Reused || ref.Refines != 1 {
		t.Fatalf("refine not reused: %+v", ref)
	}
	if want := queryCount(t, ts, step, "px > 0.05 && y < 0.5"); ref.Matches != want {
		t.Fatalf("refine=and matches %d, conjunction oracle %d", ref.Matches, want)
	}

	// Refine (andnot): carve a hole out of the selection.
	var ref2 SessionSelectBody
	if code, raw, _ := sessPost(t, ts, selectPath(sid, step, "x > 0.8", "refine=andnot"), &ref2); code != 200 {
		t.Fatalf("refine andnot: %d %s", code, raw)
	}
	if want := queryCount(t, ts, step, "px > 0.05 && y < 0.5 && !(x > 0.8)"); ref2.Matches != want {
		t.Fatalf("refine=andnot matches %d, oracle %d", ref2.Matches, want)
	}
	if ref2.Refines != 2 || !ref2.Reused {
		t.Fatalf("refine chain state: %+v", ref2)
	}

	// Track: follow the selected IDs across every timestep. At the brush
	// step every selected particle is present by construction.
	var tr SessionTrackBody
	if code, raw, _ := sessPost(t, ts, "/v1/session/"+sid+"/track", &tr); code != 200 {
		t.Fatalf("track: %d %s", code, raw)
	}
	if !tr.Stored || tr.Partial || tr.IDVar != "id" {
		t.Fatalf("track: %+v", tr)
	}
	if len(tr.Steps) != 4 || len(tr.Counts) != 4 {
		t.Fatalf("track steps: %+v", tr)
	}
	if tr.Counts[step] != ref2.Matches {
		t.Fatalf("track count at brush step %d != selection %d", tr.Counts[step], ref2.Matches)
	}
	if tr.IDs != int(ref2.Matches) {
		t.Fatalf("materialized %d IDs for %d selected rows", tr.IDs, ref2.Matches)
	}
	if !strings.Contains(tr.Expr, "id in (") {
		t.Fatalf("track predicate not an id membership test: %q", tr.Expr)
	}

	// Views (JSON): conditional histogram panels under the selection.
	var views SessionViewsBody
	if code, raw := get(t, ts, "/v1/session/"+sid+"/views?vars=px,y", &views); code != 200 {
		t.Fatalf("views: %d %s", code, raw)
	}
	if len(views.Panels) != 2 || !views.Temporal {
		t.Fatalf("views: %+v", views)
	}
	for _, p := range views.Panels {
		if p.Total == 0 || len(p.Counts) != 32 {
			t.Fatalf("panel %s: total %d bins %d", p.Var, p.Total, len(p.Counts))
		}
	}

	// Views (PNG): the temporal parallel-coordinates rendering decodes.
	resp, err := http.Get(ts.URL + "/v1/session/" + sid + "/views?vars=px,y,pz&format=png")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("views png: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("png decode: %v", err)
	}
	if b := img.Bounds(); b.Dx() != 900 || b.Dy() != 500 {
		t.Fatalf("png size %v", b)
	}

	// Observability: /v1/stats carries the session block, /metrics the
	// session_* series, and the reuse counter moved.
	var stats StatsBody
	if code, raw := get(t, ts, "/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d %s", code, raw)
	}
	if stats.Sessions == nil || stats.Sessions.Active != 1 || stats.Sessions.Bytes <= 0 {
		t.Fatalf("stats sessions: %+v", stats.Sessions)
	}
	if stats.Sessions.RefineReuse != 2 {
		t.Fatalf("refine reuse counter %d, want 2", stats.Sessions.RefineReuse)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{"session_active", "session_bytes", "session_refine_reuse_total"} {
		if !strings.Contains(string(mraw), series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}

	// Inspect and delete.
	var info struct {
		ID         string `json:"id"`
		Selections []struct {
			Name      string `json:"name"`
			TrackedID int    `json:"tracked_ids"`
		} `json:"selections"`
	}
	if code, raw := get(t, ts, "/v1/session/"+sid, &info); code != 200 {
		t.Fatalf("get session: %d %s", code, raw)
	}
	if len(info.Selections) != 1 || info.Selections[0].Name != "sel" || info.Selections[0].TrackedID == 0 {
		t.Fatalf("session info: %+v", info)
	}
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sid, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	dresp2, _ := http.DefaultClient.Do(dreq)
	dresp2.Body.Close()
	if dresp2.StatusCode != 404 {
		t.Fatalf("double delete: %d", dresp2.StatusCode)
	}
}

// TestSessionRefineEquivalenceBothBackends drives the same refinement
// chain through the bitmap-reuse path on each backend and checks each
// intermediate state against the folded expression evaluated from
// scratch by /v1/query.
func TestSessionRefineEquivalenceBothBackends(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, backend := range []string{"fastbit", "scan"} {
		sid := "equiv-" + backend
		const step = 2
		chain := []struct {
			q, mode string
		}{
			{"px > 0", ""},
			{"y < 0.7", "and"},
			{"pz > 0.2", "or"},
			{"x > 0.9", "andnot"},
		}
		folded := ""
		for _, c := range chain {
			extra := "backend=" + backend
			if c.mode != "" {
				extra += "&refine=" + c.mode
			}
			var out SessionSelectBody
			if code, raw, _ := sessPost(t, ts, selectPath(sid, step, c.q, extra), &out); code != 200 {
				t.Fatalf("%s %q: %d %s", backend, c.q, code, raw)
			}
			switch c.mode {
			case "":
				folded = "(" + c.q + ")"
			case "and":
				folded = folded + " && (" + c.q + ")"
			case "or":
				folded = "(" + folded + ") || (" + c.q + ")"
			case "andnot":
				folded = "(" + folded + ") && !(" + c.q + ")"
			}
			if want := queryCount(t, ts, step, folded); out.Matches != want {
				t.Fatalf("%s after %q %s: matches %d, oracle %d (folded %s)",
					backend, c.q, c.mode, out.Matches, want, folded)
			}
			if c.mode != "" && !out.Reused {
				t.Fatalf("%s refine %q did not reuse the stored bitmap", backend, c.q)
			}
		}
	}
}

func TestSessionValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		path string
		want int
	}{
		{"bad refine mode", selectPath("s1", 0, "px > 0", "refine=xor"), 400},
		{"refine without prior", selectPath("s1", 0, "px > 0", "refine=and"), 404},
		{"bad session id", selectPath("no.pe", 0, "px > 0", ""), 400},
		{"bad selection name", selectPath("s1", 0, "px > 0", "name=a%20b"), 400},
		{"missing q", "/v1/session/s1/select?step=0", 400},
		{"track unknown session", "/v1/session/nope/track", 404},
	}
	for _, tc := range cases {
		if code, raw, _ := sessPost(t, ts, tc.path, nil); code != tc.want {
			t.Fatalf("%s: got %d want %d (%s)", tc.name, code, tc.want, raw)
		}
	}
	if code, raw := get(t, ts, "/v1/session/nope/views", nil); code != 404 {
		t.Fatalf("views unknown session: %d %s", code, raw)
	}
}

// TestSessionViewsRejectDuplicateVars: a views request naming an axis
// variable twice is a 400 in both formats, so the dataset's variable
// count bounds the axes (and the histograms) one request can ask for.
func TestSessionViewsRejectDuplicateVars(t *testing.T) {
	_, ts := testServer(t, Config{})
	var created struct {
		ID string `json:"id"`
	}
	if code, raw, _ := sessPost(t, ts, "/v1/session", &created); code != 200 {
		t.Fatalf("create session: %d %s", code, raw)
	}
	if code, raw, _ := sessPost(t, ts, selectPath(created.ID, 2, "px > 0.05", ""), nil); code != 200 {
		t.Fatalf("select: %d %s", code, raw)
	}
	views := "/v1/session/" + created.ID + "/views?vars="
	for _, q := range []string{"px,px", "px,y,px", "x,%20x", "px,y,px&format=png"} {
		var e ErrorBody
		if code, raw := get(t, ts, views+q, &e); code != 400 || !strings.Contains(e.Error, "listed twice") {
			t.Fatalf("views %s: %d %s, want 400 listed twice", q, code, raw)
		}
	}
	var body SessionViewsBody
	if code, raw := get(t, ts, views+"px,y", &body); code != 200 || len(body.Panels) != 2 {
		t.Fatalf("distinct views: %d %s", code, raw)
	}
}

// TestSessionPartialNeverStored is the store-or-reject rule end to end:
// with a shard dead, a select still answers (marked partial via body and
// X-Partial) but the partial selection is never stored, and a track over
// a previously stored selection reports partial without persisting.
func TestSessionPartialNeverStored(t *testing.T) {
	fleet := startShardFleet(t, 3, nil)
	_, ts := frontendServer(t, fleet)
	sid := "partial-e2e"
	const step = 1

	// Healthy fleet: brush and store.
	var sel SessionSelectBody
	if code, raw, _ := sessPost(t, ts, selectPath(sid, step, "px > 0.05", ""), &sel); code != 200 {
		t.Fatalf("select: %d %s", code, raw)
	}
	if !sel.Stored || sel.Partial {
		t.Fatalf("healthy select: %+v", sel)
	}

	// Kill one shard; a fresh selection must answer partial and refuse
	// storage.
	fleet.kill[1]()
	var psel SessionSelectBody
	code, raw, hdr := sessPost(t, ts, selectPath(sid, step, "y < 0.5", "name=other"), &psel)
	if code != 200 {
		t.Fatalf("partial select: %d %s", code, raw)
	}
	if !psel.Partial || psel.Stored || hdr.Get("X-Partial") != "1" {
		t.Fatalf("partial select stored or unmarked: %+v (X-Partial %q)", psel, hdr.Get("X-Partial"))
	}
	if code, raw, _ := sessPost(t, ts, selectPath(sid, step, "px > 0", "name=other&refine=and"), nil); code != 404 {
		t.Fatalf("refine against rejected partial selection: %d %s (want 404)", code, raw)
	}

	// Tracking the stored selection now crosses the dead shard: partial,
	// reported but not stored.
	var tr SessionTrackBody
	code, raw, hdr = sessPost(t, ts, "/v1/session/"+sid+"/track", &tr)
	if code != 200 {
		t.Fatalf("partial track: %d %s", code, raw)
	}
	if !tr.Partial || tr.Stored || hdr.Get("X-Partial") != "1" || len(tr.FailedSteps) == 0 {
		t.Fatalf("partial track stored or unmarked: %+v", tr)
	}
	var info struct {
		Selections []struct {
			Name      string `json:"name"`
			TrackedID int    `json:"tracked_ids"`
		} `json:"selections"`
	}
	if code, raw := get(t, ts, "/v1/session/"+sid, &info); code != 200 {
		t.Fatalf("get session: %d %s", code, raw)
	}
	for _, s := range info.Selections {
		if s.Name == "other" {
			t.Fatalf("partial selection %q was stored", s.Name)
		}
		if s.Name == "sel" && s.TrackedID != 0 {
			t.Fatalf("partial track persisted %d IDs", s.TrackedID)
		}
	}

	// Stats reflect the rejections.
	var stats StatsBody
	if code, raw := get(t, ts, "/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: %d %s", code, raw)
	}
	if stats.Sessions == nil || stats.Sessions.PartialRejects < 2 {
		t.Fatalf("partial rejects not counted: %+v", stats.Sessions)
	}
}
