package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// Negative sizes fail by name before the engine is built (the
	// unusable address keeps a missed check from serving forever).
	for _, name := range []string{"max-concurrent", "result-cache", "max-queued"} {
		err := run([]string{"-addr", "missing-a-port", "-" + name, "-1"})
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s -1: err = %v, want an error naming the flag", name, err)
		}
	}
}

func TestRunBadAddrFailsFast(t *testing.T) {
	if err := run([]string{"-addr", "missing-a-port"}); err == nil {
		t.Error("unusable listen address accepted")
	}
}

func TestLogMiddlewarePreservesStatus(t *testing.T) {
	h := logRequests(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Errorf("status %d, want %d", rec.Code, http.StatusTeapot)
	}
	if !strings.Contains(rec.Body.String(), "nope") {
		t.Error("body lost through the middleware")
	}
}
