package main

import (
	"os"
	"time"

	"repro/internal/transport"
)

// Probes measure one layer alone, at the sizes a workload uses, so its
// share of the workload's op can be read off.

// echoPair listens on a fresh address of the scheme ("tcp" or "shm"),
// dials it, and runs serve on the accepted side until the dialer closes.
func echoPair(scheme string, serve func(transport.Conn)) (conn transport.Conn, stop func()) {
	addr, cleanup := "tcp://127.0.0.1:0", func() {}
	if scheme == "shm" {
		dir, err := os.MkdirTemp(tmpDir(), "probe-*")
		must(err)
		addr, cleanup = "shm://"+dir, func() { os.RemoveAll(dir) }
	}
	tr, rest, err := transport.ForScheme(addr)
	must(err)
	l, err := tr.Listen(rest)
	must(err)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		serve(c)
	}()
	conn, err = tr.Dial(l.Addr())
	must(err)
	return conn, func() {
		conn.Close()
		<-done
		l.Close()
		cleanup()
	}
}

// exchangeRTT is the median round trip, in µs, of an out-byte frame
// answered by a back-byte frame over a fresh connection of the scheme.
func exchangeRTT(scheme string, out, back int) float64 {
	conn, stop := echoPair(scheme, func(c transport.Conn) {
		reply := make([]byte, back)
		for {
			f, err := c.Recv()
			if err != nil {
				return
			}
			transport.ReleaseFrame(f)
			if c.Send(reply) != nil {
				return
			}
		}
	})
	defer stop()
	n := 2000
	if out+back >= 1<<16 {
		n = 200
	}
	frame := make([]byte, out)
	lat := make([]int64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		must(conn.Send(frame))
		f, err := conn.Recv()
		must(err)
		transport.ReleaseFrame(f)
		if i >= n/10 { // the first tenth warms the path
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	return medianNs(lat) / 1e3
}

// streamFloorUs is the median time, in µs, to push total bytes through TCP
// loopback in frame-byte frames to a peer that only drains and then
// acknowledges: what the socket path costs with nothing layered on it.
func streamFloorUs(total, frame int) float64 {
	conn, stop := echoPair("tcp", func(c transport.Conn) {
		got := 0
		for {
			f, err := c.Recv()
			if err != nil {
				return
			}
			got += len(f)
			transport.ReleaseFrame(f)
			if got >= total {
				got = 0
				if c.Send([]byte{1}) != nil {
					return
				}
			}
		}
	})
	defer stop()
	buf := make([]byte, frame)
	var lat []int64
	for i := 0; i < 12; i++ {
		t0 := time.Now()
		for sent := 0; sent < total; sent += frame {
			must(conn.Send(buf[:min(frame, total-sent)]))
		}
		ack, err := conn.Recv()
		must(err)
		transport.ReleaseFrame(ack)
		if i >= 2 {
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	return medianNs(lat) / 1e3
}

// memcpyGBps is the machine's large-copy rate: the floor under every layer
// that moves the payload once more.
func memcpyGBps(bytes int) float64 {
	src, dst := make([]byte, bytes), make([]byte, bytes)
	var lat []int64
	for i := 0; i < 12; i++ {
		t0 := time.Now()
		copy(dst, src)
		if i >= 2 {
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	return float64(bytes) / medianNs(lat)
}
