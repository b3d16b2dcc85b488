// Package telemetryhttp serves a mudi.Telemetry over HTTP: /metrics
// (Prometheus text exposition), /slo (the live SLO-violation
// attribution report as JSON), /timeline (multi-resolution series
// range queries), /watch (a server-sent-events sample stream),
// /healthz, /debug/vars (expvar), and /debug/pprof/. All endpoints are
// read-only snapshots and safe to poll while a simulation runs.
//
// This lives outside the root mudi package on purpose: importing
// net/http links runtime background machinery (netip's interning and
// its GC-driven cleanup goroutine) whose allocations would pollute
// mudi's zero-overhead-when-disabled benchmark budgets. Importing mudi
// alone stays HTTP-free; pay for the server only when you mount one:
//
//	tel := mudi.NewTelemetry()
//	go http.ListenAndServe(":8080", telemetryhttp.Handler(tel))
//	res, err := sys.Simulate(mudi.SimOptions{Telemetry: tel})
package telemetryhttp

import (
	"net/http"

	"mudi"
	"mudi/internal/telemetry"
)

// Handler returns the live HTTP surface for the given instruments.
func Handler(t *mudi.Telemetry) http.Handler {
	sink, log := t.Instruments()
	return telemetry.Handler(telemetry.Options{Sink: sink, Log: log, Timeline: t.TimelineStore()})
}
