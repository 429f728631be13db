// Package obs is the reproduction's zero-dependency observability
// substrate: lock-free counters, gauges, and fixed-bucket latency
// histograms, plus a ring-buffer trace recorder (trace.go) and an
// expvar-style HTTP endpoint (http.go).
//
// The design constraint is the paper's claim C1: instrumentation rides on
// hot paths that are themselves benchmarked against "no more than a direct
// function call", so every record operation must stay in the
// few-nanosecond range and must never take a lock. Counters are sharded
// across padded cells so parallel hot paths (GetPort under
// BenchmarkE6_GetPortParallel, concurrent ORB callers) do not bounce one
// cache line; histograms index by the value's bit length, turning bucket
// selection into a single instruction; and the whole metrics layer sits
// behind one atomic gate so a run can measure its own overhead.
//
// Experiment E10 (BenchmarkE10_Observability) is the guard: it measures the
// remote hot path and the GetPort/ReleasePort pair dark vs metrics vs
// metrics+tracing, and EXPERIMENTS.md E10 records the budget (<5%) and
// the techniques that meet it. Consumers emit under layer-prefixed names
// (cca.*, orb.client.*, orb.server.*, transport.*, orb.supervised.*,
// collective.*); the ccafe shell's stats/trace commands and the HTTP
// endpoint read the same registry snapshot.
package obs
