package collective

// Tests for the cross-process M→N redistribution path: correctness against
// the in-process scheduler for assorted geometry, the plan-exchange error
// paths, provider soft-state staleness, and supervised healing through an
// injected sever mid-pull.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	ccoll "repro/internal/cca/collective"
	"repro/internal/orb"
	"repro/internal/transport"
)

// memPort is an in-memory DistArrayPort: one cohort rank's view of a
// distributed array.
type memPort struct {
	side ccoll.Side
	data []float64
}

func (p *memPort) Side() ccoll.Side     { return p.side }
func (p *memPort) LocalData() []float64 { return p.data }

// cohort builds one memPort per rank of m, with rank-local chunks carved
// from global according to the map's runs.
func cohort(m array.DataMap, global []float64) []ccoll.DistArrayPort {
	ports := make([]ccoll.DistArrayPort, m.Ranks())
	for r := range ports {
		ports[r] = &memPort{side: ccoll.Side{Map: m}, data: make([]float64, m.LocalLen(r))}
	}
	for _, run := range m.Runs() {
		dst := ports[run.Rank].(*memPort).data
		for k := 0; k < run.Global.Len(); k++ {
			dst[run.Local+k] = global[run.Global.Lo+k]
		}
	}
	return ports
}

// wantLocal is the consumer rank's expected chunk under m.
func wantLocal(m array.DataMap, global []float64, rank int) []float64 {
	out := make([]float64, m.LocalLen(rank))
	for _, run := range m.Runs() {
		if run.Rank != rank {
			continue
		}
		for k := 0; k < run.Global.Len(); k++ {
			out[run.Local+k] = global[run.Global.Lo+k]
		}
	}
	return out
}

// serve publishes ports under name on a fresh adapter/server over tr.
func serve(t *testing.T, tr transport.Transport, addr, name string, ports []ccoll.DistArrayPort) (*orb.Server, *Publisher) {
	t.Helper()
	oa := orb.NewObjectAdapter()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	pub, err := Publish(oa, name, ports)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, pub
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCrossProcessRedistribution(t *testing.T) {
	const gl = 203
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.25
	}
	cases := []struct {
		name     string
		src, dst array.DataMap
	}{
		{"block3-to-cyclic2", array.NewBlockMap(gl, 3), array.NewCyclicMap(gl, 2, 5)},
		{"cyclic4-to-block2", array.NewCyclicMap(gl, 4, 3), array.NewBlockMap(gl, 2)},
		{"serial-to-block4", array.NewSerialMap(gl), array.NewBlockMap(gl, 4)},
		{"block3-to-serial", array.NewBlockMap(gl, 3), array.NewSerialMap(gl)},
		{"matched-block2", array.NewBlockMap(gl, 2), array.NewBlockMap(gl, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &transport.InProc{}
			srv, pub := serve(t, tr, "coll-"+tc.name, "wave", cohort(tc.src, global))
			defer srv.Close()
			defer pub.Close()
			// 4-element chunks force every pair message through many chunks.
			imp, err := Attach(tr, "coll-"+tc.name, "wave", tc.dst, Options{ChunkBytes: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer imp.Close()
			if imp.ProviderRanks() != tc.src.Ranks() || imp.Ranks() != tc.dst.Ranks() {
				t.Fatalf("cohort sizes %d→%d", imp.ProviderRanks(), imp.Ranks())
			}
			for r := 0; r < tc.dst.Ranks(); r++ {
				out := make([]float64, imp.LocalLen(r))
				if err := imp.Pull(r, out); err != nil {
					t.Fatalf("pull rank %d: %v", r, err)
				}
				if want := wantLocal(tc.dst, global, r); !floatsEqual(out, want) {
					t.Fatalf("rank %d: got %v…, want %v…", r, out[:4], want[:4])
				}
			}
			outs, err := pullAll(imp)
			if err != nil {
				t.Fatal(err)
			}
			for r := range outs {
				if want := wantLocal(tc.dst, global, r); !floatsEqual(outs[r], want) {
					t.Fatalf("PullAll rank %d mismatch", r)
				}
			}
		})
	}
}

func TestRedistributionOverTCP(t *testing.T) {
	const gl = 40007 // odd size, multi-chunk at default sizing too
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i)
	}
	src := array.NewBlockMap(gl, 2)
	srv, pub := serve(t, transport.TCP{}, "127.0.0.1:0", "wave", cohort(src, global))
	defer srv.Close()
	defer pub.Close()
	dst := array.NewCyclicMap(gl, 3, 16)
	imp, err := Attach(transport.TCP{}, srv.Addr(), "wave", dst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	outs, err := pullAll(imp)
	if err != nil {
		t.Fatal(err)
	}
	for r := range outs {
		if want := wantLocal(dst, global, r); !floatsEqual(outs[r], want) {
			t.Fatalf("rank %d mismatch", r)
		}
	}
}

func TestAttachGlobalLenMismatch(t *testing.T) {
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "coll-mismatch", "wave", cohort(array.NewBlockMap(100, 2), make([]float64, 100)))
	defer srv.Close()
	defer pub.Close()
	_, err := Attach(tr, "coll-mismatch", "wave", array.NewBlockMap(50, 2), Options{})
	if err == nil || !strings.Contains(err.Error(), "cardinality mismatch") {
		t.Fatalf("err = %v, want cardinality mismatch from provider", err)
	}
}

func TestAttachValidation(t *testing.T) {
	tr := &transport.InProc{}
	if _, err := Attach(tr, "nowhere", "wave", nil, Options{}); err == nil {
		t.Error("nil consumer map accepted")
	}
	// An invalid consumer map is rejected locally, before any dial.
	bad := badMap{array.NewBlockMap(10, 2)}
	if _, err := Attach(tr, "nowhere", "wave", bad, Options{}); !errors.Is(err, array.ErrMap) {
		t.Errorf("invalid map err = %v", err)
	}
}

// badMap breaks its inner map by under-reporting the global length, so its
// runs no longer tile [0, N).
type badMap struct{ array.DataMap }

func (b badMap) GlobalLen() int { return b.DataMap.GlobalLen() - 1 }

func TestPublishValidation(t *testing.T) {
	oa := orb.NewObjectAdapter()
	if _, err := Publish(oa, "w", nil); err == nil {
		t.Error("empty cohort accepted")
	}
	if _, err := Publish(oa, "w", []ccoll.DistArrayPort{&memPort{}}); err == nil {
		t.Error("unbound map accepted")
	}
	// Cohort size must match the map's rank count.
	m := array.NewBlockMap(20, 2)
	one := []ccoll.DistArrayPort{&memPort{side: ccoll.Side{Map: m}, data: make([]float64, 10)}}
	if _, err := Publish(oa, "w", one); err == nil {
		t.Error("short cohort accepted")
	}
	// Every rank must describe the same distribution.
	mixed := cohort(m, make([]float64, 20))
	mixed[1] = &memPort{side: ccoll.Side{Map: array.NewCyclicMap(20, 2, 1)}, data: make([]float64, 10)}
	if _, err := Publish(oa, "w", mixed); err == nil || !strings.Contains(err.Error(), "different distribution") {
		t.Errorf("inconsistent cohort err = %v", err)
	}
}

// rawClient dials an unsupervised client straight at the servant, for
// driving the wire protocol with malformed requests no Import would send.
func rawClient(t *testing.T, tr transport.Transport, addr string) *orb.Client {
	t.Helper()
	c, err := orb.DialClient(tr, addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProtocolRejectsMalformedRequests(t *testing.T) {
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "coll-proto", "wave", cohort(array.NewBlockMap(24, 2), make([]float64, 24)))
	defer srv.Close()
	defer pub.Close()
	c := rawClient(t, tr, "coll-proto")
	defer c.Close()
	key := Key("wave")

	for name, call := range map[string]func() error{
		"unknown method": func() error { _, err := c.Invoke(key, "pillage"); return err },
		"exchange arity": func() error { _, err := c.Invoke(key, "exchange", int32(24)); return err },
		"exchange types": func() error { _, err := c.Invoke(key, "exchange", "24", []int32{}); return err },
		"exchange ragged runs": func() error {
			_, err := c.Invoke(key, "exchange", int32(24), []int32{0, 24, 0})
			return err
		},
		"exchange overlapping runs": func() error {
			_, err := c.Invoke(key, "exchange", int32(24), []int32{0, 20, 0, 0, 10, 24, 1, 0})
			return err
		},
		"exchange gap runs": func() error {
			_, err := c.Invoke(key, "exchange", int32(24), []int32{0, 10, 0, 0, 12, 24, 1, 0})
			return err
		},
		"exchange negative n": func() error {
			_, err := c.Invoke(key, "exchange", int32(-3), []int32{})
			return err
		},
		"begin unknown plan": func() error { _, err := c.Invoke(key, "begin", int64(999)); return err },
		"begin types":        func() error { _, err := c.Invoke(key, "begin", "1"); return err },
		"chunk unknown plan": func() error {
			_, err := c.Invoke(key, "chunk", int64(999), int64(1), int32(0), int32(0), int32(0), int32(1))
			return err
		},
		"exchange huge rank": func() error {
			_, err := c.Invoke(key, "exchange", int32(24), []int32{0, 24, 1<<31 - 1, 0})
			return err
		},
		// A oneway has no reply to encode into; the servant must refuse it
		// (not crash) and keep answering, here with "end" no longer a method.
		"oneway begin, retired end": func() error {
			if err := c.InvokeOneway(key, "begin", int64(1)); err != nil {
				return err
			}
			_, err := c.Invoke(key, "end", int64(1), int64(1))
			return err
		},
	} {
		if err := call(); !errors.Is(err, orb.ErrRemote) {
			t.Errorf("%s: err = %v, want remote error", name, err)
		}
	}

	// Unknown plan/epoch errors must carry the stale sentinel, since
	// consumers key their re-exchange off it.
	_, err := c.Invoke(key, "begin", int64(999))
	if !IsStale(err) {
		t.Errorf("unknown plan not stale: %v", err)
	}

	// A live plan with a bad chunk window or pair.
	res, err := c.Invoke(key, "exchange", int32(24), []int32{0, 24, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	planID := res[0].(int64)
	if _, err := c.Invoke(key, "chunk", planID, int64(999), int32(0), int32(0), int32(0), int32(1)); !IsStale(err) {
		t.Errorf("unknown epoch not stale: %v", err)
	}
	res, err = c.Invoke(key, "begin", planID)
	if err != nil {
		t.Fatal(err)
	}
	epoch := res[0].(int64)
	for name, args := range map[string][]any{
		"chunk negative lo":    {planID, epoch, int32(0), int32(0), int32(-1), int32(1)},
		"chunk negative count": {planID, epoch, int32(0), int32(0), int32(0), int32(-4)},
		"chunk past total":     {planID, epoch, int32(0), int32(0), int32(0), int32(1 << 20)},
		"chunk bad src rank":   {planID, epoch, int32(9), int32(0), int32(0), int32(1)},
		"chunk no such pair":   {planID, epoch, int32(1), int32(5), int32(0), int32(1)},
	} {
		if _, err := c.Invoke(key, "chunk", args...); !errors.Is(err, orb.ErrRemote) {
			t.Errorf("%s: err = %v, want remote error", name, err)
		}
	}
}

func TestBeginRejectsShortLocalData(t *testing.T) {
	m := array.NewBlockMap(20, 2)
	ports := cohort(m, make([]float64, 20))
	ports[1].(*memPort).data = ports[1].(*memPort).data[:3] // rank 1 lies
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "coll-short", "wave", ports)
	defer srv.Close()
	defer pub.Close()
	imp, err := Attach(tr, "coll-short", "wave", array.NewSerialMap(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	out := make([]float64, 20)
	if err := imp.Pull(0, out); err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("pull over short provider data: %v", err)
	}
}

// snapPort wraps memPort with the SnapshotPort extension: the publisher
// must retain the snapshot without a defensive copy.
type snapPort struct{ memPort }

func (p *snapPort) Snapshot() []float64 { return p.data }

func TestSnapshotPortServesAndValidates(t *testing.T) {
	const gl = 60
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) + 0.25
	}
	m := array.NewBlockMap(gl, 2)
	ports := make([]ccoll.DistArrayPort, 2)
	for r := 0; r < 2; r++ {
		ports[r] = &snapPort{memPort{side: ccoll.Side{Map: m}, data: wantLocal(m, global, r)}}
	}
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "coll-snap", "wave", ports)
	defer srv.Close()
	defer pub.Close()

	dst := array.NewCyclicMap(gl, 2, 4)
	imp, err := Attach(tr, "coll-snap", "wave", dst, Options{ChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	for r := 0; r < 2; r++ {
		out := make([]float64, dst.LocalLen(r))
		if err := imp.Pull(r, out); err != nil {
			t.Fatal(err)
		}
		if want := wantLocal(dst, global, r); !floatsEqual(out, want) {
			t.Fatalf("rank %d pulled %v, want %v", r, out, want)
		}
	}

	// A short snapshot must be rejected the same way short LocalData is.
	pub.Update(func() { ports[1].(*snapPort).data = ports[1].(*snapPort).data[:3] })
	out := make([]float64, dst.LocalLen(0))
	if err := imp.Pull(0, out); err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("pull over short snapshot: %v", err)
	}
}

func TestPullBufferValidation(t *testing.T) {
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "coll-buf", "wave", cohort(array.NewBlockMap(10, 1), make([]float64, 10)))
	defer srv.Close()
	defer pub.Close()
	imp, err := Attach(tr, "coll-buf", "wave", array.NewBlockMap(10, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	if err := imp.Pull(5, make([]float64, 5)); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if err := imp.Pull(0, make([]float64, 3)); !errors.Is(err, ccoll.ErrBuffer) {
		t.Errorf("short buffer err = %v", err)
	}
}

func TestStalePlanReExchangesAfterRepublish(t *testing.T) {
	const gl = 60
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i)
	}
	m := array.NewBlockMap(gl, 2)
	tr := &transport.InProc{}
	oa := orb.NewObjectAdapter()
	l, err := tr.Listen("coll-stale")
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	defer srv.Close()
	pub, err := Publish(oa, "wave", cohort(m, global))
	if err != nil {
		t.Fatal(err)
	}
	dst := array.NewCyclicMap(gl, 2, 4)
	imp, err := Attach(tr, "coll-stale", "wave", dst, Options{ChunkBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	out := make([]float64, imp.LocalLen(0))
	if err := imp.Pull(0, out); err != nil {
		t.Fatal(err)
	}

	// "Provider restart": the publisher is replaced, forgetting every plan.
	// The import's next pull hits the stale sentinel and re-exchanges
	// transparently.
	pub.Close()
	pub2, err := Publish(oa, "wave", cohort(m, global))
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	if err := imp.Pull(0, out); err != nil {
		t.Fatalf("pull after republish: %v", err)
	}
	if want := wantLocal(dst, global, 0); !floatsEqual(out, want) {
		t.Fatal("post-republish pull returned wrong data")
	}

	// With the publisher gone entirely, the re-exchange itself fails and
	// the error reaches the caller.
	pub2.Close()
	if err := imp.Pull(0, out); err == nil {
		t.Fatal("pull against closed publisher succeeded")
	}
}

func TestEpochEviction(t *testing.T) {
	// More live generations than the cache holds: the oldest goes stale.
	tr := &transport.InProc{}
	srv, pub := serve(t, tr, "coll-evict", "wave", cohort(array.NewBlockMap(16, 1), make([]float64, 16)))
	defer srv.Close()
	defer pub.Close()
	c := rawClient(t, tr, "coll-evict")
	defer c.Close()
	key := Key("wave")
	res, err := c.Invoke(key, "exchange", int32(16), []int32{0, 16, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	planID := res[0].(int64)
	var epochs []int64
	for i := 0; i < maxEpochsPerPlan+2; i++ {
		res, err := c.Invoke(key, "begin", planID)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, res[0].(int64))
		pub.Advance()
	}
	if _, err := c.Invoke(key, "chunk", planID, epochs[0], int32(0), int32(0), int32(0), int32(1)); !IsStale(err) {
		t.Errorf("evicted epoch err = %v", err)
	}
	if _, err := c.Invoke(key, "chunk", planID, epochs[len(epochs)-1], int32(0), int32(0), int32(0), int32(1)); err != nil {
		t.Errorf("live epoch err = %v", err)
	}
}

func TestSeverMidPullHealsAndCompletes(t *testing.T) {
	const gl = 20000
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 0.5
	}
	src := array.NewBlockMap(gl, 2)
	inner := &transport.InProc{}
	srv, pub := serve(t, inner, "coll-sever", "wave", cohort(src, global))
	defer srv.Close()
	defer pub.Close()

	// The consumer dials through a faulty wrapper that severs its
	// connection mid-stream; clearing the fault on the first Degraded
	// transition lets the supervised redial heal for good.
	faulty := transport.NewFaulty(inner, transport.Faults{SeverAfterSends: 40})
	states := make(chan orb.ConnState, 16)
	var clearOnce sync.Once
	opts := Options{
		ChunkBytes: 512, // many chunk calls, so the sever lands mid-pull
		Supervisor: orb.SupervisorOptions{
			Retry:       transport.Backoff{Base: time.Millisecond, Cap: 20 * time.Millisecond},
			MaxAttempts: 8,
			OnState: func(s orb.ConnState, _ error) {
				if s == orb.StateDegraded {
					clearOnce.Do(func() { faulty.SetFaults(transport.Faults{}) })
				}
				select {
				case states <- s:
				default:
				}
			},
		},
	}
	dst := array.NewCyclicMap(gl, 2, 8)
	imp, err := Attach(faulty, "coll-sever", "wave", dst, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()

	outs, err := pullAll(imp)
	if err != nil {
		t.Fatalf("pull through sever: %v", err)
	}
	for r := range outs {
		if want := wantLocal(dst, global, r); !floatsEqual(outs[r], want) {
			t.Fatalf("rank %d data corrupted by retry", r)
		}
	}
	if faulty.Stats().Severs == 0 {
		t.Fatal("fault plan never fired; test proved nothing")
	}
	sawDegraded, sawHealthy := false, false
	for {
		select {
		case s := <-states:
			switch s {
			case orb.StateDegraded:
				sawDegraded = true
			case orb.StateHealthy:
				sawHealthy = sawHealthy || sawDegraded
			}
			if sawDegraded && sawHealthy {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("states: degraded=%v healed=%v", sawDegraded, sawHealthy)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ChunkBytes != 16*transport.CoalesceCutoff {
		t.Errorf("ChunkBytes = %d", o.ChunkBytes)
	}
	if windowBytes != 256<<10 {
		t.Errorf("windowBytes = %d, want 256 KiB", windowBytes)
	}
	if o.ChunkBytes < transport.CoalesceCutoff {
		t.Error("default chunks would miss the zero-copy path")
	}
	if o.Supervisor.Idempotent == nil || !o.Supervisor.Idempotent("chunk") {
		t.Error("protocol methods must default to idempotent")
	}
	if got := (Options{ChunkBytes: 13}).withDefaults().ChunkBytes; got != 8 {
		t.Errorf("tiny chunk rounded to %d, want 8", got)
	}
}

func TestIsStale(t *testing.T) {
	if IsStale(nil) || IsStale(errors.New("boring")) {
		t.Error("false positive")
	}
	if !IsStale(errors.New("orb: remote: collective: unknown plan 7")) {
		t.Error("missed wrapped sentinel")
	}
}

// pullAll redistributes one consistent epoch of the provider's data into
// freshly allocated chunks, one per consumer rank.
func pullAll(imp *Import) ([][]float64, error) {
	outs := make([][]float64, imp.cmap.Ranks())
	for r := range outs {
		outs[r] = make([]float64, imp.cmap.LocalLen(r))
	}
	if err := imp.PullAllInto(context.Background(), outs); err != nil {
		return nil, err
	}
	return outs, nil
}
