package framework

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/cca"
	"repro/internal/mpi"
)

// ErrInconsistent reports a cohort operation whose arguments or outcomes
// diverged across ranks — the condition §6.3 requires CCA implementations
// to prevent: "the CCA standard does require that as one of the CCA
// services the implementation maintain consistency among the classes."
var ErrInconsistent = errors.New("framework: cohort state diverged across ranks")

// Cohort is one rank's view of a parallel framework: a per-rank Framework
// instance (the paper's "in a distributed-memory model a copy of these
// classes could be maintained by every process participating in
// computation") plus the communicator tying the cohort together.
//
// All Parallel methods are collective: every rank of the communicator must
// call them in the same order with the same arguments, and each call ends
// with a consistency verification across ranks.
type Cohort struct {
	F    *Framework
	Comm *mpi.Comm
}

// NewCohort builds this rank's framework instance. The framework
// advertises the collective flavor in addition to opts.Flavor.
func NewCohort(comm *mpi.Comm, opts Options) *Cohort {
	if opts.Flavor == 0 {
		opts.Flavor = cca.FlavorInProcess
	}
	opts.Flavor |= cca.FlavorCollective
	return &Cohort{F: New(opts), Comm: comm}
}

// Rank returns this cohort member's rank.
func (c *Cohort) Rank() int { return c.Comm.Rank() }

// verify checks that every rank reached the same operation with the same
// argument digest and agreed on success.
func (c *Cohort) verify(op string, args string, localErr error) error {
	h := fnv.New64a()
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(args))
	digest := float64(h.Sum64() >> 11) // keep within float64 integer precision
	okFlag := 1.0
	if localErr != nil {
		okFlag = 0
	}
	lo, err := c.Comm.AllreduceScalar(digest, mpi.Min)
	if err != nil {
		return err
	}
	hi, err := c.Comm.AllreduceScalar(digest, mpi.Max)
	if err != nil {
		return err
	}
	allOK, err := c.Comm.AllreduceScalar(okFlag, mpi.Min)
	if err != nil {
		return err
	}
	if lo != hi {
		return fmt.Errorf("%w: %s(%s)", ErrInconsistent, op, args)
	}
	if localErr != nil {
		return localErr
	}
	if allOK == 0 {
		return fmt.Errorf("%w: %s(%s) failed on another rank", ErrInconsistent, op, args)
	}
	return nil
}

// InstallParallel instantiates one component member per rank under the
// shared instance name. The factory receives the rank so members can bind
// rank-specific state (their slice of a distributed array, for example).
func (c *Cohort) InstallParallel(name string, factory func(rank int) cca.Component) error {
	localErr := c.F.Install(name, factory(c.Rank()))
	return c.verify("install", name, localErr)
}

// ConnectParallel connects the named ports on every rank, yielding one
// connection per cohort member (the per-process port copies of §6.3).
func (c *Cohort) ConnectParallel(user, usesPort, provider, providesPort string) (cca.ConnectionID, error) {
	id, localErr := c.F.Connect(user, usesPort, provider, providesPort)
	args := strings.Join([]string{user, usesPort, provider, providesPort}, "\x00")
	return id, c.verify("connect", args, localErr)
}

// VerifyPorts checks that a component's port registrations agree across the
// cohort: every rank must expose identical provides/uses port name+type
// sets. Components whose members register different ports (a programming
// error in SPMD code) are detected here rather than hanging later.
func (c *Cohort) VerifyPorts(component string) error {
	svc, ok := c.F.Services(component)
	var desc string
	var localErr error
	if !ok {
		localErr = fmt.Errorf("%w: %q", ErrComponentUnknown, component)
	} else {
		var parts []string
		for _, n := range svc.ProvidesPortNames() {
			info, _ := svc.PortInfo(n)
			parts = append(parts, "p:"+n+":"+info.Type)
		}
		for _, n := range svc.UsesPortNames() {
			info, _ := svc.PortInfo(n)
			parts = append(parts, "u:"+n+":"+info.Type)
		}
		desc = strings.Join(parts, ",")
	}
	return c.verify("ports:"+component, desc, localErr)
}
