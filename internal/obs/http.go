package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// httpView is the JSON document the endpoint serves: the expvar idiom (one
// flat JSON object, GET-only, no auth — bind it to loopback) over the
// Default registry and Tracer.
type httpView struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]histView `json:"histograms"`
	Tracing    traceView           `json:"tracing"`
	Spans      []Span              `json:"spans,omitempty"`
}

// histView flattens a HistSnapshot into the numbers a human wants first.
type histView struct {
	Count uint64        `json:"count"`
	Sum   uint64        `json:"sum"`
	Mean  float64       `json:"mean"`
	P50   uint64        `json:"p50"`
	P90   uint64        `json:"p90"`
	P99   uint64        `json:"p99"`
	Hist  []BucketCount `json:"buckets,omitempty"`
}

type traceView struct {
	Enabled  bool   `json:"enabled"`
	Recorded uint64 `json:"recorded"`
}

// view builds the endpoint document. spans ≤ 0 omits span bodies.
func view(r *Registry, t *Recorder, spans int) httpView {
	snap := r.Snapshot()
	v := httpView{
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: make(map[string]histView, len(snap.Histograms)),
		Tracing:    traceView{Enabled: t.Enabled(), Recorded: t.Recorded()},
	}
	for name, h := range snap.Histograms {
		v.Histograms[name] = histView{
			Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			Hist: h.Buckets,
		}
	}
	if spans > 0 {
		all := t.Spans()
		if len(all) > spans {
			all = all[len(all)-spans:]
		}
		v.Spans = all
	}
	return v
}

// HandlerFor serves a registry and recorder as indented JSON. Query
// parameter spans=N appends the last N retained trace spans.
func HandlerFor(r *Registry, t *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := 0
		if s := req.URL.Query().Get("spans"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				spans = n
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(view(r, t, spans)) //nolint:errcheck // best-effort endpoint
	})
}

// Handler serves the process-wide Default registry and Tracer.
func Handler() http.Handler { return HandlerFor(Default, Tracer) }

// ServeOptions configures the metrics endpoint.
type ServeOptions struct {
	// Pprof additionally mounts net/http/pprof's profile handlers under
	// /debug/pprof/, so fan-out hot spots can be profiled in-situ
	// (`go tool pprof http://<addr>/debug/pprof/profile`). Off by
	// default: the profile endpoints can pause the process, so they must
	// be an explicit opt-in even on loopback.
	Pprof bool
}

// ServeWith exposes Handler at "/" on addr (e.g. "127.0.0.1:0") in a
// background goroutine. It returns the bound address — useful with port
// 0 — and a closer that shuts the listener down.
func ServeWith(addr string, opts ServeOptions) (bound string, closer func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", Handler())
	if opts.Pprof {
		// Mount explicitly on our own mux instead of relying on the
		// DefaultServeMux side-effect registration, so the flag really
		// gates exposure.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // exits on Close
	return ln.Addr().String(), srv.Close, nil
}
