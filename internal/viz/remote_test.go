package viz

// Tests for RemoteAttachment: several serial viz consumers concurrently
// pulling one generation of a published distributed array, and the
// buffer-reuse contract of Snapshot.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/cca/collective"
	dcoll "repro/internal/dist/collective"
	"repro/internal/orb"
	"repro/internal/transport"
)

// vizPort is one provider rank of an in-memory distributed array.
type vizPort struct {
	side collective.Side
	data []float64
}

func (p *vizPort) Side() collective.Side { return p.side }
func (p *vizPort) LocalData() []float64  { return p.data }

func vizCohort(m array.DataMap, global []float64) []collective.DistArrayPort {
	ports := make([]collective.DistArrayPort, m.Ranks())
	for r := range ports {
		ports[r] = &vizPort{side: collective.Side{Map: m}, data: make([]float64, m.LocalLen(r))}
	}
	for _, run := range m.Runs() {
		dst := ports[run.Rank].(*vizPort).data
		for k := 0; k < run.Global.Len(); k++ {
			dst[run.Local+k] = global[run.Global.Lo+k]
		}
	}
	return ports
}

var (
	errShortSnapshot = errors.New("snapshot length wrong")
	errTornSnapshot  = errors.New("snapshot torn or stale")
	errBufNotReused  = errors.New("snapshot buffer reallocated across epochs")
)

// TestRemoteAttachmentsConcurrent attaches several viz consumers to one
// cached publisher and snapshots concurrently: every consumer must see
// the full untorn field each frame, and each attachment must reuse its
// pull buffer across epochs.
func TestRemoteAttachmentsConcurrent(t *testing.T) {
	const gl = 4096
	global := make([]float64, gl)
	for i := range global {
		global[i] = float64(i) * 0.125
	}
	oa := orb.NewObjectAdapter()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := orb.Serve(oa, l)
	defer srv.Close()
	ports := vizCohort(array.NewBlockMap(gl, 2), global)
	pub, err := dcoll.Publish(oa, "field", ports)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const consumers = 6
	const frames = 4
	var wg sync.WaitGroup
	errs := make(chan error, consumers)
	fail := func(err error) { errs <- err }
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := AttachRemote(transport.TCP{}, srv.Addr(), "field", gl, dcoll.Options{})
			if err != nil {
				fail(err)
				return
			}
			defer a.Close()
			var prev []float64
			for f := 0; f < frames; f++ {
				out, err := a.Snapshot(context.Background())
				if err != nil {
					fail(err)
					return
				}
				if len(out) != gl {
					fail(errShortSnapshot)
					return
				}
				for j := range out {
					if out[j] != global[j] {
						fail(errTornSnapshot)
						return
					}
				}
				if prev != nil && &out[0] != &prev[0] {
					fail(errBufNotReused)
					return
				}
				prev = out
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
