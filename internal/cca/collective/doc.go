// Package collective implements CCA Collective Ports (§6.3 of the paper):
// "a small but powerful extension of the basic CCA Ports model to handle
// interactions among parallel components and thereby to free programmers
// from focusing on the often intricate implementation-level details of
// parallel computations."
//
// A collective connection joins two parallel components — M source ranks
// and N destination ranks, each side describing its data layout with an
// array.DataMap ("the creation of a collective port requires that the
// programmer specify the mapping of data"). The connection planner
// intersects the two distributions into a message schedule:
//
//   - N→N with matching maps: no redistribution — each rank's transfer is
//     a local copy ("in the most common case the mappings of the input and
//     output ports match each other ... data would not need redistribution
//     between the parallel components");
//   - 1→N and N→1 (a serial component against a parallel one): the
//     schedule degenerates to scatter/gather — "the semantics of this
//     interaction are very similar to broadcast, gather, and scatter";
//   - arbitrary M→N: full redistribution — "collective ports are defined
//     generally enough to allow data to be distributed arbitrarily in the
//     connected components", the case Figure 1 needs to attach a
//     differently distributed visualization tool.
//
// The same Plan serves two movers. In one address space the Transfer
// mover executes the schedule over mpi point-to-point messages —
// experiment E4 (BenchmarkE4_Redistribution, examples/collective) measures it,
// including the matched-map fast path the paper predicts. Across
// processes, the PairStream face (stream.go) exposes each (source,
// destination) pair's packed message as a byte-addressable stream so
// repro/internal/dist/collective can carry the redistribution over the
// ORB in chunks — experiment E11 (BenchmarkE11_CollectivePull,
// examples/distviz) measures that path; DESIGN.md §9 documents the
// protocol.
package collective
