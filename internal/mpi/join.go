package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Environment variables through which a launcher (cmd/ccalaunch) hands a
// spawned rank its identity. Join reads them; JoinConfig takes the same
// values programmatically.
const (
	EnvRendezvous = "CCA_MPI_RENDEZVOUS"
	EnvRank       = "CCA_MPI_RANK"
	EnvSize       = "CCA_MPI_SIZE"
	EnvListen     = "CCA_MPI_LISTEN"
	EnvTimeout    = "CCA_MPI_TIMEOUT"
)

// ProcConfig describes one rank's membership in a process-spanning cohort.
type ProcConfig struct {
	// Rendezvous is the scheme-qualified address of the rendezvous
	// service, e.g. "tcp://127.0.0.1:7077" or "shm:///tmp/job/rv".
	Rendezvous string
	// Rank and Size are this process's world rank and the world size.
	Rank, Size int
	// Listen is the scheme-qualified address this rank's peer listener
	// binds; empty derives a default from the rendezvous scheme
	// ("tcp://127.0.0.1:0" for tcp). Non-tcp addresses are suffixed with a
	// per-attempt nonce so re-joins after a failure never collide with a
	// stale endpoint.
	Listen string
	// Timeout bounds rendezvous dialing, world formation, and mesh
	// construction. Zero means 10s.
	Timeout time.Duration
}

// joinSeq distinguishes join attempts within one process (nonce component
// of derived listen addresses).
var joinSeq int64

// listenAddr picks and uniquifies the peer-mesh listen address for one
// join attempt.
func (cfg *ProcConfig) listenAddr() string {
	addr := cfg.Listen
	if addr == "" {
		switch transport.Scheme(cfg.Rendezvous) {
		case "tcp":
			return "tcp://127.0.0.1:0"
		default:
			// shm dirs and inproc names derive from the rendezvous address.
			addr = cfg.Rendezvous + ".ranks"
		}
	}
	if transport.Scheme(addr) == "tcp" {
		// Port 0 is already collision-free.
		return addr
	}
	n := atomic.AddInt64(&joinSeq, 1)
	return fmt.Sprintf("%s/r%d-p%d-a%d", addr, cfg.Rank, os.Getpid(), n)
}

// Join forms (or re-forms) this process's membership in the cohort
// described by the CCA_MPI_* environment variables and returns the world
// communicator plus the lifecycle handle. It blocks until all Size ranks
// have joined the rendezvous and the full peer mesh is connected.
func Join() (*Comm, *Proc, error) {
	rendezvous := os.Getenv(EnvRendezvous)
	if rendezvous == "" {
		return nil, nil, fmt.Errorf("mpi: %s not set (not launched under ccalaunch?)", EnvRendezvous)
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: bad %s: %w", EnvRank, err)
	}
	size, err := strconv.Atoi(os.Getenv(EnvSize))
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: bad %s: %w", EnvSize, err)
	}
	var timeout time.Duration
	if v := os.Getenv(EnvTimeout); v != "" {
		if timeout, err = time.ParseDuration(v); err != nil {
			return nil, nil, fmt.Errorf("mpi: bad %s: %w", EnvTimeout, err)
		}
	}
	return JoinConfig(ProcConfig{
		Rendezvous: rendezvous,
		Rank:       rank,
		Size:       size,
		Listen:     os.Getenv(EnvListen),
		Timeout:    timeout,
	})
}

// JoinConfig is Join with explicit configuration. On success the returned
// Comm spans all Size processes; collective and point-to-point traffic
// moves over the transport mesh. The caller must Close the Proc to leave
// gracefully.
func JoinConfig(cfg ProcConfig) (*Comm, *Proc, error) {
	if cfg.Size <= 0 {
		return nil, nil, fmt.Errorf("mpi: nonpositive world size %d", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, nil, fmt.Errorf("%w: join rank %d (size %d)", ErrRankRange, cfg.Rank, cfg.Size)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}

	// Peer listener first: the address must be live before it is announced.
	laddr := cfg.listenAddr()
	ltr, lrest, err := transport.ForScheme(laddr)
	if err != nil {
		return nil, nil, err
	}
	l, err := ltr.Listen(lrest)
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: rank %d listen %s: %w", cfg.Rank, laddr, err)
	}
	selfAddr := transport.Scheme(laddr) + "://" + l.Addr()

	// Register with the rendezvous and wait for the world map.
	rtr, rrest, err := transport.ForScheme(cfg.Rendezvous)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	ctl, err := transport.DialRetry(rtr, rrest, timeout)
	if err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("mpi: rank %d rendezvous dial: %w", cfg.Rank, err)
	}
	if err := ctl.Send(appendJoin(uint64(cfg.Rank), uint64(cfg.Size), selfAddr)); err != nil {
		ctl.Close()
		l.Close()
		return nil, nil, fmt.Errorf("mpi: rank %d join: %w", cfg.Rank, err)
	}
	var gen uint64
	var addrs []string
	if err := recvBounded(ctl, timeout, "", func() (err error) {
		gen, addrs, err = recvWorld(ctl)
		return err
	}); err != nil {
		ctl.Close()
		l.Close()
		return nil, nil, fmt.Errorf("mpi: rank %d world formation: %w", cfg.Rank, err)
	}
	if len(addrs) != cfg.Size {
		ctl.Close()
		l.Close()
		return nil, nil, fmt.Errorf("%w: world has %d addrs, size %d", ErrWire, len(addrs), cfg.Size)
	}

	// Full mesh: accept from higher ranks while dialing lower ranks — the
	// two directions must overlap or middle ranks deadlock on each other.
	peers, err := formMesh(l, cfg.Rank, cfg.Size, gen, addrs, timeout)
	if err != nil {
		ctl.Close()
		l.Close()
		return nil, nil, fmt.Errorf("mpi: rank %d mesh: %w", cfg.Rank, err)
	}

	pw := &procWorld{
		rank:     cfg.Rank,
		size:     cfg.Size,
		gen:      gen,
		box:      newMailbox(),
		peers:    peers,
		listener: l,
		ctl:      ctl,
		byeSeen:  make([]bool, cfg.Size),
	}
	pw.byeCond = sync.NewCond(&pw.mu)
	for r, conn := range peers {
		if conn == nil {
			continue
		}
		pw.loopWG.Add(1)
		go pw.recvLoop(r, conn)
	}

	// Ready/go barrier: no rank proceeds until every rank's receive loops
	// are live, so no early send can race a half-built peer.
	if err := ctl.Send([]byte{rvReady}); err != nil {
		proc := &Proc{pw: pw}
		proc.Kill()
		return nil, nil, fmt.Errorf("mpi: rank %d ready: %w", cfg.Rank, err)
	}
	if err := recvBounded(ctl, timeout, " (go barrier)", func() error { return recvGo(ctl) }); err != nil {
		proc := &Proc{pw: pw}
		proc.Kill()
		return nil, nil, fmt.Errorf("mpi: rank %d go barrier: %w", cfg.Rank, err)
	}

	cProcJoins.Inc()
	group := make([]int, cfg.Size)
	for i := range group {
		group[i] = i
	}
	return &Comm{eng: pw, rank: cfg.Rank, group: group}, &Proc{pw: pw}, nil
}

// ErrFormationTimeout reports a cohort that failed to assemble within the
// join timeout: not every rank reached the rendezvous (or the formation
// barrier), so waiting longer cannot help — a crashed peer with no restart
// budget would otherwise hang the survivors' re-joins forever.
var ErrFormationTimeout = errors.New("mpi: world formation timeout")

// recvBounded runs recv, a receive on ctl, bounded by d: on expiry the
// control connection is closed (unblocking recv) and ErrFormationTimeout
// returns, with detail naming the wait.
func recvBounded(ctl transport.Conn, d time.Duration, detail string, recv func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- recv() }()
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case err := <-ch:
		return err
	case <-tm.C:
		ctl.Close()
		<-ch
		return fmt.Errorf("%w after %s%s", ErrFormationTimeout, d, detail)
	}
}

// recvWorld reads control frames until the world map (or an rvErr) arrives.
func recvWorld(ctl transport.Conn) (uint64, []string, error) {
	for {
		f, err := ctl.Recv()
		if err != nil {
			return 0, nil, err
		}
		if len(f) == 0 {
			transport.ReleaseFrame(f)
			return 0, nil, fmt.Errorf("%w: empty control frame", ErrWire)
		}
		switch f[0] {
		case rvWorld:
			gen, addrs, err := parseWorld(f[1:])
			transport.ReleaseFrame(f)
			return gen, addrs, err
		case rvErr:
			msg, _, merr := readString(f[1:])
			transport.ReleaseFrame(f)
			if merr != nil {
				msg = "unreadable rendezvous error"
			}
			return 0, nil, errors.New(msg)
		default:
			transport.ReleaseFrame(f)
			return 0, nil, fmt.Errorf("%w: unexpected control frame %d", ErrWire, f[0])
		}
	}
}

// recvGo waits for the formation barrier release.
func recvGo(ctl transport.Conn) error {
	f, err := ctl.Recv()
	if err != nil {
		return err
	}
	defer transport.ReleaseFrame(f)
	if len(f) == 0 || f[0] != rvGo {
		if len(f) > 0 && f[0] == rvErr {
			msg, _, merr := readString(f[1:])
			if merr == nil {
				return errors.New(msg)
			}
		}
		return fmt.Errorf("%w: expected go frame", ErrWire)
	}
	return nil
}

// formMesh builds this rank's size-1 peer connections: dial every lower
// rank (sending a hello that names us and the generation), accept one
// connection from every higher rank (validating its hello). Stale dials
// from an earlier generation are rejected by the gen check.
func formMesh(l transport.Listener, rank, size int, gen uint64, addrs []string, timeout time.Duration) ([]transport.Conn, error) {
	peers := make([]transport.Conn, size)
	expect := size - 1 - rank

	type acceptResult struct {
		conns []transport.Conn // by rank, entries > rank
		err   error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		got := make([]transport.Conn, size)
		n := 0
		for n < expect {
			c, err := l.Accept()
			if err != nil {
				acceptCh <- acceptResult{err: err}
				return
			}
			f, err := c.Recv()
			if err != nil {
				c.Close()
				continue
			}
			ok := len(f) > 1 && f[0] == kHello
			var peerRank, peerGen uint64
			if ok {
				b := f[1:]
				var m int
				peerRank, m = binary.Uvarint(b)
				if m <= 0 {
					ok = false
				} else {
					peerGen, m = binary.Uvarint(b[m:])
					ok = m > 0
				}
			}
			transport.ReleaseFrame(f)
			if !ok || peerGen != gen || peerRank <= uint64(rank) || peerRank >= uint64(size) || got[peerRank] != nil {
				c.Close()
				continue
			}
			got[peerRank] = c
			n++
		}
		acceptCh <- acceptResult{conns: got}
	}()

	var dialErr error
	for j := 0; j < rank; j++ {
		tr, rest, err := transport.ForScheme(addrs[j])
		if err == nil {
			var c transport.Conn
			if c, err = transport.DialRetry(tr, rest, timeout); err == nil {
				hello := binary.AppendUvarint([]byte{kHello}, uint64(rank))
				hello = binary.AppendUvarint(hello, gen)
				if err = c.Send(hello); err != nil {
					c.Close()
				} else {
					peers[j] = c
				}
			}
		}
		if err != nil && dialErr == nil {
			dialErr = fmt.Errorf("dial rank %d at %s: %w", j, addrs[j], err)
		}
	}

	var acceptErr error
	if expect > 0 {
		select {
		case res := <-acceptCh:
			if res.err != nil {
				acceptErr = res.err
			} else {
				for r := rank + 1; r < size; r++ {
					peers[r] = res.conns[r]
				}
			}
		case <-time.After(timeout):
			acceptErr = fmt.Errorf("timeout accepting %d peer connections", expect)
		}
	}

	if dialErr != nil || acceptErr != nil {
		for _, c := range peers {
			if c != nil {
				c.Close()
			}
		}
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}
	return peers, nil
}

// RunOver is the process-backend analogue of Run for tests and benchmarks:
// it starts an in-process rendezvous on rendezvousAddr (any transport
// scheme), joins n member goroutines through the full wire path — codec,
// transport mesh, rendezvous barriers — and runs body on each rank.
// Members finalize with the real bye handshake when body returns. Panics
// in a rank kill that member (peers observe a rank death) and are
// re-raised on the caller.
func RunOver(n int, rendezvousAddr string, body func(c *Comm, p *Proc)) error {
	tr, rest, err := transport.ForScheme(rendezvousAddr)
	if err != nil {
		return err
	}
	l, err := tr.Listen(rest)
	if err != nil {
		return fmt.Errorf("mpi: rendezvous listen %s: %w", rendezvousAddr, err)
	}
	rv := NewRendezvous(l, n)
	defer rv.Close()
	rvAddr := transport.Scheme(rendezvousAddr) + "://" + l.Addr()

	var wg sync.WaitGroup
	panics := make(chan any, n)
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm, proc, err := JoinConfig(ProcConfig{Rendezvous: rvAddr, Rank: rank, Size: n})
			if err != nil {
				errs[rank] = err
				return
			}
			defer func() {
				if p := recover(); p != nil {
					proc.Kill()
					panics <- p
					return
				}
				proc.Close()
			}()
			body(comm, proc)
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	return errors.Join(errs...)
}
