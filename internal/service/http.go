package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/obs"
)

// The versioned HTTP surface. Every route is /v1/-prefixed and every
// body — request and response, success and failure — is an api/v1
// type; nothing else crosses the wire. The observability routes
// (/metrics, /debug/vars, /debug/pprof/) from internal/obs mount on
// the same mux.

// maxBodyBytes bounds request bodies; specs for tens of thousands of
// systems fit comfortably, a runaway client does not.
const maxBodyBytes = 64 << 20

// Handler returns the daemon's full HTTP surface:
//
//	GET    /healthz                        liveness
//	GET    /v1/tenants                     list resident tenants
//	GET    /v1/tenants/{id}                one tenant's summary
//	PUT    /v1/tenants/{id}/spec           install/replace a specification
//	DELETE /v1/tenants/{id}                evict a tenant and its state
//	POST   /v1/tenants/{id}/check          full consistency check
//	POST   /v1/tenants/{id}/delta-check    incremental re-check
//	POST   /v1/tenants/{id}/generate       derive per-agent configurations
//	POST   /v1/tenants/{id}/rollout        install configs at a fleet
//	POST   /v1/tenants/{id}/verify-change  check a proposed revision against change contracts
//	GET    /metrics, /debug/vars, /debug/pprof/...  (internal/obs)
//
// A request under /v1/ that no route matches is answered in the error
// envelope too: 404 for a path no route has, 405 with the mux's Allow
// header for a method the path's routes do not take. Path-cleaning
// redirects, and requests outside /v1/, get the mux's own answer.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})

	mux.HandleFunc("GET /v1/tenants", s.route("tenants", func(w http.ResponseWriter, r *http.Request) int {
		return s.writeJSON(w, http.StatusOK, s.Tenants())
	}))

	mux.HandleFunc("GET /v1/tenants/{id}", s.route("tenant", func(w http.ResponseWriter, r *http.Request) int {
		t, err := s.tenant(r.PathValue("id"))
		if err != nil {
			return s.writeErr(w, err)
		}
		return s.writeJSON(w, http.StatusOK, t.info())
	}))

	mux.HandleFunc("DELETE /v1/tenants/{id}", s.route("remove", func(w http.ResponseWriter, r *http.Request) int {
		if err := s.RemoveTenant(r.PathValue("id")); err != nil {
			return s.writeErr(w, err)
		}
		w.WriteHeader(http.StatusNoContent)
		return http.StatusNoContent
	}))

	mux.HandleFunc("PUT /v1/tenants/{id}/spec", s.route("spec", func(w http.ResponseWriter, r *http.Request) int {
		var req apiv1.SpecRequest
		if code := s.readJSON(w, r, &req); code != 0 {
			return code
		}
		resp, err := s.UpdateSpec(r.Context(), r.PathValue("id"), &req)
		if err != nil {
			return s.writeErr(w, err)
		}
		return s.writeJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("POST /v1/tenants/{id}/check", s.route("check", s.checkHandler((*Service).Check)))
	mux.HandleFunc("POST /v1/tenants/{id}/delta-check", s.route("delta-check", s.checkHandler((*Service).DeltaCheck)))

	mux.HandleFunc("POST /v1/tenants/{id}/generate", s.route("generate", func(w http.ResponseWriter, r *http.Request) int {
		resp, err := s.Generate(r.Context(), r.PathValue("id"))
		if err != nil {
			return s.writeErr(w, err)
		}
		return s.writeJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("POST /v1/tenants/{id}/rollout", s.route("rollout", func(w http.ResponseWriter, r *http.Request) int {
		var req apiv1.RolloutRequest
		if code := s.readJSON(w, r, &req); code != 0 {
			return code
		}
		resp, err := s.Rollout(r.Context(), r.PathValue("id"), &req)
		if resp == nil && err != nil {
			return s.writeErr(w, err)
		}
		// A partial rollout (cancellation mid-fleet) still carries a
		// report; the status code tells the client it was cut short.
		code := http.StatusOK
		if err != nil {
			code = apiv1.StatusFromErr(err)
		}
		return s.writeJSON(w, code, resp)
	}))

	mux.HandleFunc("POST /v1/tenants/{id}/verify-change", s.route("verify-change", func(w http.ResponseWriter, r *http.Request) int {
		var req apiv1.VerifyChangeRequest
		if code := s.readJSON(w, r, &req); code != 0 {
			return code
		}
		resp, err := s.VerifyChange(r.Context(), r.PathValue("id"), &req)
		if err != nil {
			return s.writeErr(w, err)
		}
		return s.writeJSON(w, http.StatusOK, resp)
	}))

	obsHandler := obs.Handler(s.reg)
	mux.Handle("/metrics", obsHandler)
	mux.Handle("/debug/", obsHandler)

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, pattern := mux.Handler(r); pattern == "" && strings.HasPrefix(r.URL.Path, "/v1/") {
			uw := &unmatchedWriter{ResponseWriter: w}
			h.ServeHTTP(uw, r)
			switch uw.code {
			case http.StatusNotFound:
				s.writeCode(w, uw.code, fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
			case http.StatusMethodNotAllowed:
				s.writeCode(w, uw.code, fmt.Sprintf("method %s not allowed for %s (allowed: %s)", r.Method, r.URL.Path, w.Header().Get("Allow")))
			}
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// unmatchedWriter passes on the mux's answer to a request no route
// matches, except a 404 or 405: of those it keeps only the code, and
// the headers the mux set (Allow), for the error envelope.
type unmatchedWriter struct {
	http.ResponseWriter
	code int
}

func (u *unmatchedWriter) WriteHeader(code int) {
	if code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
		u.code = code
		return
	}
	u.ResponseWriter.WriteHeader(code)
}

func (u *unmatchedWriter) Write(b []byte) (int, error) {
	if u.code != 0 {
		return len(b), nil
	}
	return u.ResponseWriter.Write(b)
}

// checkHandler adapts Check/DeltaCheck (same shape) into a handler.
// The request body is optional: empty means default options.
func (s *Service) checkHandler(fn func(*Service, context.Context, string, *apiv1.CheckRequest) (*apiv1.CheckResponse, error)) func(http.ResponseWriter, *http.Request) int {
	return func(w http.ResponseWriter, r *http.Request) int {
		var req apiv1.CheckRequest
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
		if err != nil {
			return s.writeCode(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return s.writeCode(w, http.StatusBadRequest, "decoding request: "+err.Error())
			}
		}
		resp, err := fn(s, r.Context(), r.PathValue("id"), &req)
		if err != nil {
			return s.writeErr(w, err)
		}
		return s.writeJSON(w, http.StatusOK, resp)
	}
}

// route wraps a handler with the per-route request counter, labeled by
// route and response code class. The handler runs under obs.Guard: a
// panic in it, or one a check re-raises on its goroutine, answers 500
// with the error envelope and is counted in
// nmsl_panics_total{site="nmsld"}, and the daemon keeps serving.
func (s *Service) route(name string, fn func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var code int
		if err := obs.Guard("nmsld "+name, func() { code = fn(w, r) }); err != nil {
			s.reg.Counter(obs.L(obs.MetricPanics, "site", "nmsld")).Inc()
			code = s.writeCode(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", err.(*obs.PanicError).Value))
		}
		if s.reg.Enabled() {
			s.reg.Counter(obs.L(MetricRequests, "route", name, "code", codeClass(code))).Inc()
		}
	}
}

// codeClass buckets an HTTP status for the metric label (2xx/4xx/...),
// keeping label cardinality constant.
func codeClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// readJSON decodes a required JSON request body; returns 0 on success
// or the status code it already wrote.
func (s *Service) readJSON(w http.ResponseWriter, r *http.Request, dst any) int {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		return s.writeCode(w, http.StatusBadRequest, "decoding request: "+err.Error())
	}
	return 0
}

// writeJSON writes a success body; returns the code for the metric.
func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return code
}

// writeErr maps a service error onto the uniform error envelope.
func (s *Service) writeErr(w http.ResponseWriter, err error) int {
	return s.writeCode(w, statusFromServiceErr(err), err.Error())
}

func (s *Service) writeCode(w http.ResponseWriter, code int, msg string) int {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(apiv1.NewError(code, msg))
	return code
}

// statusFromServiceErr maps the service's typed errors onto status
// codes, falling through to the shared context-error mapping
// (apiv1.StatusFromErr) for cancellation and deadlines.
func statusFromServiceErr(err error) int {
	switch {
	case errors.Is(err, ErrNoTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrBadTenantID), errors.Is(err, ErrCompile), errors.Is(err, ErrBadContract):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoSpec), errors.Is(err, ErrInconsistent):
		return http.StatusConflict
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTenantLimit):
		return http.StatusServiceUnavailable
	default:
		return apiv1.StatusFromErr(err)
	}
}
