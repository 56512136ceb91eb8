package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
)

func newTestServer(t *testing.T, opts ...Option) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do performs one request and decodes the response into out (skipped
// when out is nil), asserting the status code.
func do(t *testing.T, ts *httptest.Server, method, path string, body, out any, wantCode int) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e apiv1.Error
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s = %d (%s), want %d", method, path, resp.StatusCode, e.Message, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHTTPEndToEnd walks the whole versioned surface: install a spec,
// check, delta-check, generate, list, delete.
func TestHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	p := netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 9}

	var up apiv1.SpecResponse
	do(t, ts, http.MethodPut, "/v1/tenants/acme/spec", specReqFor(p), &up, http.StatusOK)
	if up.APIVersion != apiv1.Version || up.Generation != 1 || up.Refs == 0 {
		t.Fatalf("bad spec response: %+v", up)
	}

	var chk apiv1.CheckResponse
	do(t, ts, http.MethodPost, "/v1/tenants/acme/check", nil, &chk, http.StatusOK)
	if !chk.Report.Consistent || chk.Report.RefsChecked == 0 {
		t.Fatalf("bad check response: %+v", chk.Report)
	}

	var dchk apiv1.CheckResponse
	do(t, ts, http.MethodPost, "/v1/tenants/acme/delta-check", nil, &dchk, http.StatusOK)
	if !dchk.Delta {
		t.Fatal("delta-check did not take the delta path")
	}

	var gen apiv1.GenerateResponse
	do(t, ts, http.MethodPost, "/v1/tenants/acme/generate", nil, &gen, http.StatusOK)
	if len(gen.Configs) == 0 {
		t.Fatal("no configs on the wire")
	}

	var list apiv1.TenantsResponse
	do(t, ts, http.MethodGet, "/v1/tenants", nil, &list, http.StatusOK)
	if len(list.Tenants) != 1 || list.Tenants[0].ID != "acme" {
		t.Fatalf("bad tenant list: %+v", list)
	}
	if list.Tenants[0].Consistent == nil || !*list.Tenants[0].Consistent {
		t.Fatalf("tenant not marked consistent: %+v", list.Tenants[0])
	}

	var info apiv1.TenantInfo
	do(t, ts, http.MethodGet, "/v1/tenants/acme", nil, &info, http.StatusOK)
	if info.ID != "acme" || info.Generation != 1 {
		t.Fatalf("bad tenant info: %+v", info)
	}

	do(t, ts, http.MethodDelete, "/v1/tenants/acme", nil, nil, http.StatusNoContent)
	do(t, ts, http.MethodGet, "/v1/tenants/acme", nil, nil, http.StatusNotFound)
}

// TestHTTPErrorMapping pins every typed error's status code and the
// uniform envelope shape.
func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, WithMaxTenants(1))
	p := netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown tenant", http.MethodPost, "/v1/tenants/ghost/check", nil, http.StatusNotFound},
		{"bad id", http.MethodPut, "/v1/tenants/bad%2Fid/spec", specReqFor(p), http.StatusBadRequest},
		{"bad body", http.MethodPut, "/v1/tenants/ok/spec", "not a spec", http.StatusBadRequest},
		{"compile error", http.MethodPut, "/v1/tenants/ok/spec",
			&apiv1.SpecRequest{Sources: []apiv1.Source{{Name: "x", Text: "domain {"}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e apiv1.Error
			do(t, ts, c.method, c.path, c.body, &e, c.want)
			if e.APIVersion != apiv1.Version || e.Code != c.want || e.Message == "" {
				t.Fatalf("bad error envelope: %+v", e)
			}
		})
	}

	// Tenant cap → 503 with the envelope.
	do(t, ts, http.MethodPut, "/v1/tenants/one/spec", specReqFor(p), nil, http.StatusOK)
	var e apiv1.Error
	do(t, ts, http.MethodPut, "/v1/tenants/two/spec", specReqFor(p), &e, http.StatusServiceUnavailable)
	if !strings.Contains(e.Message, "tenant limit") {
		t.Fatalf("wrong 503 cause: %q", e.Message)
	}

	// No spec yet (resident tenant without one is unreachable over HTTP,
	// so exercise inconsistent → 409 instead).
	bad := netsim.Params{Domains: 2, SystemsPerDomain: 2, InconsistencyRate: 1, Seed: 3}
	do(t, ts, http.MethodDelete, "/v1/tenants/one", nil, nil, http.StatusNoContent)
	do(t, ts, http.MethodPut, "/v1/tenants/one/spec", specReqFor(bad), nil, http.StatusOK)
	do(t, ts, http.MethodPost, "/v1/tenants/one/generate", nil, &e, http.StatusConflict)
}

// TestHTTPRateLimited maps ErrRateLimited to 429 over the wire.
func TestHTTPRateLimited(t *testing.T) {
	now := time.Unix(0, 0)
	_, ts := newTestServer(t,
		WithRateLimit(0.001, 1),
		WithClock(func() time.Time { return now }))
	p := netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1}
	do(t, ts, http.MethodPut, "/v1/tenants/acme/spec", specReqFor(p), nil, http.StatusOK)
	var e apiv1.Error
	do(t, ts, http.MethodPost, "/v1/tenants/acme/check", nil, &e, http.StatusTooManyRequests)
	if e.Code != http.StatusTooManyRequests {
		t.Fatalf("bad envelope: %+v", e)
	}
}

// TestHTTPObservabilityMounted asserts /metrics and /healthz live on
// the same mux as the API.
func TestHTTPObservabilityMounted(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestHTTPVerifyChange walks the change-contract pre-gate endpoint: a
// proposed edit outside the contract's scope is refused with typed
// violations, the same edit under a ring-wide contract passes, and
// neither verdict touches the resident generation (a verify is a dry
// run).
func TestHTTPVerifyChange(t *testing.T) {
	_, ts := newTestServer(t)
	p := netsim.Params{Domains: 3, SystemsPerDomain: 1, Seed: 5}
	do(t, ts, http.MethodPut, "/v1/tenants/acme/spec", specReqFor(p), nil, http.StatusOK)

	// The edit retunes the last domain's poller (the one querying
	// agentT0) — an instance well outside dom0.
	base := netsim.Source(p)
	anchor := "queries agentT0\n        requests mgmt.mib.system.sysDescr\n        frequency >= 5 minutes;"
	if strings.Count(base, anchor) != 1 {
		t.Fatalf("edit anchor not unique in netsim source")
	}
	edited := strings.Replace(base, anchor,
		strings.Replace(anchor, ">= 5 minutes", ">= 10 minutes", 1), 1)
	verifyReq := func(contract string) *apiv1.VerifyChangeRequest {
		return &apiv1.VerifyChangeRequest{
			Contract: contract,
			Sources:  []apiv1.Source{{Name: "net.nmsl", Text: edited}},
		}
	}
	scoped := "contract only-dom0 ::=\n    scope dom0;\nend contract only-dom0.\n"
	ringWide := "contract ring-wide ::=\n    scope public;\n    forbid widen-access;\nend contract ring-wide.\n"

	var vr apiv1.VerifyChangeResponse
	do(t, ts, http.MethodPost, "/v1/tenants/acme/verify-change", verifyReq(scoped), &vr, http.StatusOK)
	if vr.OK || len(vr.Violations) == 0 {
		t.Fatalf("out-of-scope edit passed: %+v", vr)
	}
	if v := vr.Violations[0]; v.Contract != "only-dom0" || v.Clause != "scope" || v.Entry == "" {
		t.Fatalf("bad violation: %+v", v)
	}
	if vr.Generation != 1 || vr.DirtyInstances == 0 {
		t.Fatalf("bad verdict envelope: %+v", vr)
	}

	var ok apiv1.VerifyChangeResponse
	do(t, ts, http.MethodPost, "/v1/tenants/acme/verify-change", verifyReq(ringWide), &ok, http.StatusOK)
	if !ok.OK || len(ok.Violations) != 0 {
		t.Fatalf("ring-wide contract refused a clean retune: %+v", ok)
	}

	// Error surface: malformed contract text → 400, a proposal that
	// does not compile → 400, an unknown tenant → 404. None of it may
	// advance the generation.
	var e apiv1.Error
	do(t, ts, http.MethodPost, "/v1/tenants/acme/verify-change", verifyReq("contract broken"), &e, http.StatusBadRequest)
	if !strings.Contains(e.Message, "contract") {
		t.Fatalf("wrong 400 cause: %q", e.Message)
	}
	do(t, ts, http.MethodPost, "/v1/tenants/acme/verify-change",
		&apiv1.VerifyChangeRequest{Contract: scoped, Sources: []apiv1.Source{{Name: "x", Text: "domain {"}}},
		nil, http.StatusBadRequest)
	do(t, ts, http.MethodPost, "/v1/tenants/ghost/verify-change", verifyReq(scoped), nil, http.StatusNotFound)

	var info apiv1.TenantInfo
	do(t, ts, http.MethodGet, "/v1/tenants/acme", nil, &info, http.StatusOK)
	if info.Generation != 1 {
		t.Fatalf("verify-change moved the generation to %d", info.Generation)
	}
}

// TestRoutePanicAnswers500: a panicking handler answers 500 with the
// api/v1 error envelope and is counted in nmsl_panics_total{site=nmsld}
// and as a 5xx request; the daemon then serves the next request.
func TestRoutePanicAnswers500(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, WithMetrics(reg))
	rec := httptest.NewRecorder()
	s.route("boom", func(http.ResponseWriter, *http.Request) int { panic("boom") })(
		rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/t1/check", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e apiv1.Error
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("decoding the error envelope: %v", err)
	}
	if e.APIVersion != apiv1.Version || e.Code != http.StatusInternalServerError || !strings.Contains(e.Message, "boom") {
		t.Errorf("envelope %+v", e)
	}
	snap := reg.Snapshot()
	if got := snap.Value(obs.L(obs.MetricPanics, "site", "nmsld")); got != 1 {
		t.Errorf("nmsl_panics_total{site=nmsld} = %d, want 1", got)
	}
	if got := snap.Value(obs.L(MetricRequests, "route", "boom", "code", "5xx")); got != 1 {
		t.Errorf("5xx requests on the panicking route = %d, want 1", got)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("the request after the panic got %d, want 200", rec.Code)
	}
}

// FuzzServiceRequest sends a fuzzed method, tenant path and body through
// the daemon's handler over a temp state directory holding one
// installed tenant. Every answer a route gives must be an api/v1
// document — a failure in the error envelope with the answer's code, a
// success a JSON object whose api version, where it carries one, is
// v1 — and no input may panic a route
// (nmsl_panics_total{site="nmsld"} stays 0). A request no route
// matches is answered in the error envelope too, except a path-cleaning
// redirect. The rollout route is left out: it sends datagrams to the
// addresses in its body.
func FuzzServiceRequest(f *testing.F) {
	reg := obs.NewRegistry()
	s, err := New(WithStateDir(f.TempDir()), WithMetrics(reg), WithFlushInterval(0))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	spec := specReqFor(netsim.Params{Domains: 2, SystemsPerDomain: 1, Seed: 1})
	if _, err := s.UpdateSpec(context.Background(), "t1", spec); err != nil {
		f.Fatal(err)
	}
	specBody, err := json.Marshal(spec)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Add(http.MethodGet, "t1", []byte(nil))
	f.Add(http.MethodPut, "t2/spec", specBody)
	f.Add(http.MethodPut, "t1/spec", []byte(`{"sources":[{"name":"x.nmsl","text":"domain d ::= end domain d."}]}`))
	f.Add(http.MethodPost, "t1/check", []byte(`{"workers":2,"fail_fast":true}`))
	f.Add(http.MethodPost, "t1/delta-check", []byte(nil))
	f.Add(http.MethodPost, "t1/generate", []byte(nil))
	f.Add(http.MethodPost, "t1/verify-change", []byte(`{"contract":"","sources":[]}`))
	f.Add(http.MethodDelete, "t1", []byte(nil))
	f.Add(http.MethodPost, "t1/check", []byte(`{"workers":`))
	f.Add(http.MethodGet, "..%2f..%2fmetrics", []byte(nil))
	f.Fuzz(func(t *testing.T, method, tenantPath string, body []byte) {
		req, err := http.NewRequest(method, "/v1/tenants/"+tenantPath, bytes.NewReader(body))
		if err != nil || strings.Contains(req.URL.Path, "rollout") {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if n := reg.Snapshot().Value(obs.L(obs.MetricPanics, "site", "nmsld")); n != 0 {
			t.Fatalf("%s %s: a route panicked (%d): %s", method, req.URL.Path, n, rec.Body)
		}
		code := rec.Code
		if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			switch {
			case code == http.StatusNoContent && method == http.MethodDelete,
				code >= 300 && code < 400:
				return
			}
			t.Fatalf("%s %s = %d with a %q body: %q", method, req.URL.Path, code, rec.Header().Get("Content-Type"), rec.Body)
		}
		var doc struct {
			APIVersion *string `json:"api_version"`
			Code       int     `json:"code"`
			Message    string  `json:"message"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s %s = %d, not a JSON object: %v: %q", method, req.URL.Path, code, err, rec.Body)
		}
		versioned := doc.APIVersion == nil || *doc.APIVersion == apiv1.Version
		if !versioned || code >= 400 && (doc.APIVersion == nil || doc.Code != code || doc.Message == "") {
			t.Fatalf("%s %s = %d, not an api/v1 document: %q", method, req.URL.Path, code, rec.Body)
		}
	})
}

// TestUnmatchedV1Envelope: a request under /v1/ that no route matches
// gets the api/v1 error envelope, 404 for an unknown path and 405, with
// the routes' Allow header, for a method the path does not take. A
// path-cleaning redirect and a request outside /v1/ get the mux's own
// answer.
func TestUnmatchedV1Envelope(t *testing.T) {
	s := newTestService(t)
	if _, err := s.UpdateSpec(context.Background(), "t1", specReqFor(netsim.Params{Domains: 2, SystemsPerDomain: 1, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		method, path string
		code         int
		allow        string // the Allow header a 405 keeps
		envelope     bool
	}{
		{http.MethodGet, "/v1/nope", http.StatusNotFound, "", true},
		{http.MethodGet, "/v1/", http.StatusNotFound, "", true},
		{http.MethodPost, "/v1/tenants/t1/bogus", http.StatusNotFound, "", true},
		{http.MethodGet, "/v1/tenants/t1/spec/extra", http.StatusNotFound, "", true},
		{http.MethodPatch, "/v1/tenants/t1", http.StatusMethodNotAllowed, "DELETE, GET, HEAD", true},
		{http.MethodGet, "/v1/tenants/t1/check", http.StatusMethodNotAllowed, "POST", true},
		{http.MethodPost, "/v1/tenants", http.StatusMethodNotAllowed, "GET, HEAD", true},
		{http.MethodGet, "/v1/tenants/t1/spec", http.StatusMethodNotAllowed, "PUT", true},
		{http.MethodGet, "/v1/tenants/../tenants", http.StatusMovedPermanently, "", false},
		{http.MethodGet, "/v1//tenants", http.StatusMovedPermanently, "", false},
		{http.MethodGet, "/nope", http.StatusNotFound, "", false},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed, "GET, HEAD", false},
		{http.MethodGet, "/v1/tenants/t1", http.StatusOK, "", false},
		{http.MethodGet, "/v1/tenants/ghost", http.StatusNotFound, "", true},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		where := tc.method + " " + tc.path
		if rec.Code != tc.code {
			t.Errorf("%s = %d, want %d: %q", where, rec.Code, tc.code, rec.Body)
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow %q, want %q", where, got, tc.allow)
		}
		isJSON := strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json")
		if !tc.envelope {
			if isJSON && tc.code != http.StatusOK {
				t.Errorf("%s = %d in JSON, want the mux's own answer: %q", where, rec.Code, rec.Body)
			}
			continue
		}
		var e apiv1.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); !isJSON || err != nil ||
			e.APIVersion != apiv1.Version || e.Code != tc.code || e.Message == "" {
			t.Errorf("%s = %d, not the api/v1 error envelope (%v): %q", where, rec.Code, err, rec.Body)
		}
	}
}
