// metrics.go instruments the HTTP surfaces: per-route request latency
// and status codes on the server side, and a stream helper that keeps
// an accurate active-watcher gauge even when a client drops the
// connection mid-stream.
package remote

import (
	"net/http"
	"strconv"
	"time"

	"bolted/internal/obs"
)

// statusRecorder captures the response status for the latency metric.
// It forwards Flush (NDJSON streams flush per batch) and exposes the
// underlying writer via Unwrap, so http.NewResponseController still
// reaches the real connection's SetWriteDeadline through it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrumentMux wraps a ServeMux with per-route request accounting:
// bolted_http_request_seconds{route,code}. The route label is the mux
// pattern ("GET /operations/{id}"), never the raw URL, so cardinality
// is bounded by the API surface, not by tenant-chosen names. A nil
// registry returns the mux untouched — the uninstrumented path pays
// nothing.
func instrumentMux(reg *obs.Registry, mux http.Handler) http.Handler {
	if reg == nil {
		return mux
	}
	lat := reg.HistogramVec("bolted_http_request_seconds",
		"Control-plane HTTP request duration by mux route and status code.",
		obs.DefLatencyBuckets, "route", "code")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		mux.ServeHTTP(rec, r)
		// Serving routed the request once and left the matched pattern on
		// it; asking mux.Handler first would route every request twice.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		code := rec.status
		if code == 0 {
			code = http.StatusOK
		}
		lat.With(route, strconv.Itoa(code)).ObserveSince(t0)
	})
}

// v1Metrics are the /v1 stream instruments. The zero value (no
// registry) is fully usable: nil instruments no-op.
type v1Metrics struct {
	watchers *obs.GaugeVec   // active NDJSON stream clients by route
	flushes  *obs.CounterVec // stream flushes (one visible batch each)
}

func newV1Metrics(reg *obs.Registry) v1Metrics {
	return v1Metrics{
		watchers: reg.GaugeVec("bolted_http_stream_watchers",
			"Active NDJSON stream clients by route.", "route"),
		flushes: reg.CounterVec("bolted_http_stream_flushes_total",
			"NDJSON stream flushes by route (each one pushed a batch to a client).", "route"),
	}
}

// stream registers one NDJSON watcher and returns its flush and done
// hooks. flush pushes buffered output to the client and counts it; done
// decrements the watcher gauge. Handlers defer done() immediately, so
// the gauge drains on every exit path — encode error, enclave deletion
// mid-stream, or the client dropping the connection — never leaking a
// phantom watcher.
func (m v1Metrics) stream(route string, w http.ResponseWriter) (flush, done func()) {
	flusher, _ := w.(http.Flusher)
	g := m.watchers.With(route)
	c := m.flushes.With(route)
	g.Inc()
	return func() {
		if flusher != nil {
			flusher.Flush()
			c.Inc()
		}
	}, g.Dec
}
