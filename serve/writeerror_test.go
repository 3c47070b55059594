package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mnn"
	"mnn/serve/admission"
)

// TestWriteErrorStatus: every typed error maps to its HTTP status and
// headers, through any wrapping, and the body carries the error text.
func TestWriteErrorStatus(t *testing.T) {
	cases := []struct {
		name        string
		err         error
		code        int
		retryAfter  string // "" = header absent
		quarantined bool
	}{
		{"overload", &admission.OverloadError{Name: "m", Reason: admission.ReasonQueueFull, RetryAfter: 1500 * time.Millisecond},
			http.StatusTooManyRequests, "2", false},
		{"overload, retry under a second", &admission.OverloadError{Name: "m", Reason: admission.ReasonDeadline, RetryAfter: time.Millisecond},
			http.StatusTooManyRequests, "1", false},
		{"bare overloaded", admission.ErrOverloaded, http.StatusTooManyRequests, "1", false},
		{"quarantined until later", &QuarantinedError{Ref: "m:1", Until: time.Now().Add(90 * time.Second)},
			http.StatusServiceUnavailable, "90", true},
		{"quarantined, cooldown over", &QuarantinedError{Ref: "m:1", Until: time.Now().Add(-time.Second)},
			http.StatusServiceUnavailable, "", true},
		{"bare quarantined", ErrModelQuarantined, http.StatusServiceUnavailable, "", true},
		{"kernel panic", mnn.ErrKernelPanic, http.StatusInternalServerError, "", false},
		{"model not found", ErrModelNotFound, http.StatusNotFound, "", false},
		{"unknown network", mnn.ErrUnknownNetwork, http.StatusNotFound, "", false},
		{"bad request", ErrBadRequest, http.StatusBadRequest, "", false},
		{"input shape", mnn.ErrInputShape, http.StatusBadRequest, "", false},
		{"shape out of plan", mnn.ErrShapeOutOfPlan, http.StatusBadRequest, "", false},
		{"unknown device", mnn.ErrUnknownDevice, http.StatusBadRequest, "", false},
		{"unknown backend", mnn.ErrUnknownBackend, http.StatusBadRequest, "", false},
		{"server closed", ErrServerClosed, http.StatusServiceUnavailable, "", false},
		{"engine closed", mnn.ErrEngineClosed, http.StatusServiceUnavailable, "", false},
		{"admission closed", admission.ErrClosed, http.StatusServiceUnavailable, "", false},
		{"cancelled", mnn.ErrCancelled, http.StatusServiceUnavailable, "", false},
		{"untyped", errors.New("boom"), http.StatusInternalServerError, "", false},
	}
	for _, tc := range cases {
		err := fmt.Errorf("serving m: %w", tc.err)
		rec := httptest.NewRecorder()
		if got := writeError(rec, err); got != tc.code || rec.Code != tc.code {
			t.Errorf("%s: writeError returned %d and wrote %d, want %d", tc.name, got, rec.Code, tc.code)
		}
		h := rec.Header()
		// The quarantine's Retry-After counts down from when the case was
		// built; a slow run may see it a second lower.
		if ra := h.Get("Retry-After"); ra != tc.retryAfter && !(tc.retryAfter == "90" && ra == "89") {
			t.Errorf("%s: Retry-After %q, want %q", tc.name, ra, tc.retryAfter)
		}
		if q := h.Get("X-Model-Quarantined") == "true"; q != tc.quarantined {
			t.Errorf("%s: X-Model-Quarantined set = %v, want %v", tc.name, q, tc.quarantined)
		}
		if ct := h.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		if !strings.Contains(rec.Body.String(), "serving m: ") {
			t.Errorf("%s: body %s does not carry the error", tc.name, rec.Body)
		}
	}
}
