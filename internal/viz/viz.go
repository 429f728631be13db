// Package viz provides the loosely coupled visualization and analysis
// components of the paper's Figure 1 lower half: "components for
// visualization, which can often be more loosely coupled and differently
// distributed than the numerical components", attachable to an ongoing
// simulation — §2.2: "a researcher may wish to visualize flow fields on a
// local workstation by dynamically attaching a visualization tool to an
// ongoing simulation that is running on a remote parallel machine."
//
// StatsMonitor is a MonitorPort listener fed by the flow component's
// fan-out, RenderASCII draws a contour of a field, and Attachment pulls a
// parallel component's distributed field onto a single rank through a
// collective port connection.
package viz

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/array"
	"repro/internal/cca"
	"repro/internal/cca/collective"
	dcoll "repro/internal/dist/collective"
	"repro/internal/hydro"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// StatsMonitor is a monitor component printing per-step statistics. It
// provides a "monitor" port that FlowComponent's uses-port fans out to.
type StatsMonitor struct {
	// Out, when non-nil, receives one line per observation.
	Out io.Writer
}

var (
	_ cca.Component     = (*StatsMonitor)(nil)
	_ hydro.MonitorPort = (*StatsMonitor)(nil)
)

// SetServices implements cca.Component.
func (s *StatsMonitor) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(s, cca.PortInfo{Name: "monitor", Type: hydro.TypeMonitor})
}

// Observe implements hydro.MonitorPort.
func (s *StatsMonitor) Observe(step int, st hydro.Stats) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, "%s\n", st)
	}
}

// RenderASCII bins scattered node values onto a w×h character grid
// (averaging samples per cell) and maps normalized magnitude onto a
// density ramp. Rows print top-to-bottom with y increasing upward.
func RenderASCII(coords [][2]float64, values []float64, w, h int) string {
	const ramp = " .:-=+*#%@"
	grid, minV, maxV := binToGrid(coords, values, w, h)
	span := maxV - minV
	var b strings.Builder
	for row := h - 1; row >= 0; row-- {
		for col := 0; col < w; col++ {
			c := grid[row][col]
			if c.n == 0 {
				b.WriteByte(' ')
				continue
			}
			v := c.sum / float64(c.n)
			t := 0.0
			if span > 0 {
				t = (v - minV) / span
			}
			idx := int(t * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

type cell struct {
	sum float64
	n   int
}

func binToGrid(coords [][2]float64, values []float64, w, h int) (grid [][]cell, minV, maxV float64) {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, c := range coords {
		minX, maxX = math.Min(minX, c[0]), math.Max(maxX, c[0])
		minY, maxY = math.Min(minY, c[1]), math.Max(maxY, c[1])
	}
	grid = make([][]cell, h)
	for i := range grid {
		grid[i] = make([]cell, w)
	}
	minV, maxV = math.Inf(1), math.Inf(-1)
	for i, c := range coords {
		if i >= len(values) {
			break
		}
		col, row := 0, 0
		if maxX > minX {
			col = int((c[0] - minX) / (maxX - minX) * float64(w-1))
		}
		if maxY > minY {
			row = int((c[1] - minY) / (maxY - minY) * float64(h-1))
		}
		grid[row][col].sum += values[i]
		grid[row][col].n++
		minV = math.Min(minV, values[i])
		maxV = math.Max(maxV, values[i])
	}
	if minV > maxV { // no samples
		minV, maxV = 0, 0
	}
	return grid, minV, maxV
}

// Attachment is a serial tool's live connection to a parallel component's
// collective DistArray port: the dynamic-attach scenario of §2.2.
type Attachment struct {
	Conn *collective.Connection
	// WorldRank is the rank the data lands on.
	WorldRank int
	buf       []float64
}

// Attach plans a collective connection pulling the provider's distributed
// field onto worldRank.
func Attach(provider collective.DistArrayPort, worldRank int) (*Attachment, error) {
	side := provider.Side()
	if side.Map == nil {
		return nil, fmt.Errorf("viz: provider side is unbound (initialize the component first)")
	}
	conn, err := collective.Connect(provider, collective.Serial(side.Map.GlobalLen(), worldRank))
	if err != nil {
		return nil, err
	}
	return &Attachment{Conn: conn, WorldRank: worldRank}, nil
}

// Snapshot pulls the current field; collective over every rank in either
// side. Only the attachment's world rank receives data (others get nil).
func (a *Attachment) Snapshot(comm *mpi.Comm) ([]float64, error) {
	var out []float64
	if comm.Rank() == a.WorldRank {
		if a.buf == nil {
			a.buf = make([]float64, a.Conn.Plan.GlobalLen())
		}
		out = a.buf
	}
	if err := a.Conn.Pull(comm, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RemoteAttachment is the cross-process form of Attachment: a serial viz
// tool pulling a published distributed array over the ORB serving tier
// (repro/internal/dist/collective) instead of an in-process collective
// connection. The pull buffer is allocated once and reused across epochs,
// so a steady-state frame loop allocates nothing — the renderer reads
// each frame before pulling the next.
type RemoteAttachment struct {
	imp *dcoll.Import
	buf []float64
}

// AttachRemote dials a published collective port (see dcoll.Publish) and
// plans the whole globalLen-element array onto this process as one serial
// rank. The connection is supervised: severed links heal with backoff,
// and opts.Supervisor observes health transitions.
func AttachRemote(tr transport.Transport, addr, name string, globalLen int, opts dcoll.Options) (*RemoteAttachment, error) {
	imp, err := dcoll.Attach(tr, addr, name, array.NewSerialMap(globalLen), opts)
	if err != nil {
		return nil, err
	}
	return &RemoteAttachment{imp: imp}, nil
}

// Snapshot pulls one epoch-consistent frame into the reused buffer. The
// returned slice aliases the attachment's buffer: it is valid until the
// next Snapshot call.
func (a *RemoteAttachment) Snapshot(ctx context.Context) ([]float64, error) {
	if a.buf == nil {
		a.buf = make([]float64, a.imp.GlobalLen())
	}
	if err := a.imp.PullContext(ctx, 0, a.buf); err != nil {
		return nil, err
	}
	return a.buf, nil
}

// Close releases the supervised connection.
func (a *RemoteAttachment) Close() error { return a.imp.Close() }
