package mpi

// Request represents an outstanding nonblocking operation, mirroring
// MPI_Request. Wait blocks for completion; Test polls.
type Request struct {
	doneCh  chan struct{}
	err     error
	payload any
	status  Status
}

func newRequest() *Request {
	return &Request{doneCh: make(chan struct{})}
}

// complete records the outcome and releases the waiters. It runs once per
// request; closing doneCh publishes the fields to them.
func (r *Request) complete(payload any, st Status, err error) {
	r.payload, r.status, r.err = payload, st, err
	close(r.doneCh)
}

// Wait blocks until the operation completes and returns its error, if any.
func (r *Request) Wait() error {
	<-r.doneCh
	return r.err
}

// WaitRecv blocks until completion and returns the received payload and
// status. For send requests the payload is nil.
func (r *Request) WaitRecv() (any, Status, error) {
	<-r.doneCh
	return r.payload, r.status, r.err
}

// Test reports whether the operation has completed without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.doneCh:
		return true
	default:
		return false
	}
}

// Isend starts a nonblocking send. Because delivery into the destination
// mailbox never blocks, the request completes eagerly; the Request exists so
// SPMD code keeps the familiar Isend/Wait structure.
func (c *Comm) Isend(dest, tag int, payload any) (*Request, error) {
	r := newRequest()
	err := c.Send(dest, tag, payload)
	r.complete(nil, Status{}, err)
	return r, err
}

// Irecv starts a nonblocking receive serviced by a helper goroutine.
func (c *Comm) Irecv(source, tag int) (*Request, error) {
	if err := c.checkRecv(source, tag); err != nil {
		return nil, err
	}
	r := newRequest()
	go func() {
		p, st, err := c.recvInternal(source, tag)
		r.complete(p, st, err)
	}()
	return r, nil
}

// WaitAll waits on every request and returns the first error encountered.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
