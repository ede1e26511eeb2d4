package service

import (
	"net/http"
	"strconv"
	"time"
)

// RetryableStatus reports whether an HTTP status is transient by this
// API's contract: 503 is the scheduler shedding load, 502/504 are a
// dying or unreachable upstream. It is the client half of the
// load-shedding contract, together with RetryAfter: the fleet router
// fails over on these statuses and honours the server's Retry-After as
// the floor of its backoff, instead of hammering a saturated replica
// into a retry storm. Every request in this API is idempotent
// (responses are pure functions of the request), so replaying a request
// that may have half-executed is always safe.
func RetryableStatus(status int) bool {
	return status == http.StatusServiceUnavailable ||
		status == http.StatusBadGateway ||
		status == http.StatusGatewayTimeout
}

// RetryAfter parses a response's Retry-After header as delta-seconds,
// returning 0 when absent or unparseable (HTTP-date forms are not used
// by this API).
func RetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
