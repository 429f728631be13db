package obs

import "testing"

// Primitive costs: these bound what instrumentation can add to the hot
// paths (C1 budget math in EXPERIMENTS.md E10).

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter("bench.counter.inc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDark(b *testing.B) {
	c := NewCounter("bench.counter.dark")
	SetMetricsEnabled(false)
	defer SetMetricsEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewCounter("bench.counter.par")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewGauge("bench.gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkNanotime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = nanotime()
	}
}

func BenchmarkMono(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Mono()
	}
}
