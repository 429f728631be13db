// Package mpi provides an MPI-like message-passing substrate with two
// interchangeable backends: goroutine ranks in one address space, and
// process ranks spanning OS processes and machines over the multiplexed
// transport layer.
//
// The Common Component Architecture paper (HPDC 1999) assumes SPMD parallel
// components whose internal communication is MPI (see Figure 1: "component A
// (a mesh) uses MPI to communicate among the four processes over which it is
// distributed"). This package reproduces the semantics the CCA's collective
// ports are built on — rank-addressed point-to-point messaging with MPI
// (source, tag) matching including wildcards, communicator groups, and the
// collective operations the repository's components use.
//
// The API is the part of the MPI-1 surface those components call: Send
// and Recv; Barrier, Bcast, AllreduceFloat64 and AllreduceScalar (with the
// Sum, Max and Min ops), Alltoall; and communicator Split. Send never waits
// for a matching Recv — delivery is a mailbox append, or a frame the peer's
// reader drains into its mailbox — so send-then-receive exchanges (and a
// halo send overlapped with interior work) need no nonblocking request
// API, and there is none.
//
// # One payload kind, one ownership rule
//
// Every message carries a []float64, the only payload the components
// send: halos, M→N transfers, reductions. Barrier sends an empty one and
// Split its [color, key, rank] triples. A send copies its payload before
// it returns, on every backend, so the sender may overwrite it at once;
// the receiver owns the slice it gets, as a real MPI program owns its
// receive buffer after MPI_Recv returns. A collective's result is the
// caller's own too: a copy no other rank holds, or, where it is the
// caller's own input (Bcast's root, Alltoall's own part), that input.
//
// # Backends
//
// A Comm is backed by an engine — the rank-addressed p2p substrate it runs
// on: send, receive, and derived-context allocation. The collective
// algorithms (binomial trees, recursive-doubling allreduce, window-cycled
// tags; see collectives.go) are written purely against that interface, so
// one implementation serves both backends and a conformance suite executes
// the same semantic table over each:
//
//   - Goroutine backend ([Run]): every rank is a goroutine, and delivery
//     is a mailbox append of a copy of the payload. This is the fast path
//     for tests and single-process SPMD components.
//
//   - Process backend ([Join], [JoinConfig], [RunOver]): every rank is an OS
//     process (or an isolated in-process member in tests). Ranks form a full
//     mesh of transport connections — tcp:// across hosts, shm:// same-host
//     rings — and exchange rank-addressed frames ([source, effective tag,
//     float64 payload]; see wire.go). Cohort formation goes through a
//     rendezvous service (rendezvous.go) that assigns the rank↔address map,
//     barriers on world formation, and allocates derived-communicator
//     contexts so Split stays globally collision-free.
//
// Rank death on the process backend is not silent: a broken peer connection
// without the finalize handshake poisons the local mailbox with a typed
// [RankDeadError], so every rank blocked in a collective fails fast instead
// of hanging, and the dist layer can surface the failure through the
// framework's connection-health events.
package mpi
