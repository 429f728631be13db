// Package dist implements distributed CCA port connections: the paper's
// §6.1 requirement that "loosely coupled distributed connections should be
// available through the very same interface as the tightly coupled direct
// connections, without the components being aware of the connection type."
//
// A provides port is exported from its home framework through an ORB object
// adapter; a remote framework installs a proxy component whose provides
// port implements the same Go interface but forwards each call through
// the ORB client. Because the proxy satisfies the identical port interface,
// the using component cannot tell a remote connection from a direct one —
// only the latency differs (measured in experiment E2; examples/remote is
// the end-to-end scenario).
//
// Generic forwarding uses SIDL reflection metadata (method names and
// CDR-encodable arguments); for the ESI interfaces, typed adapters are
// provided so solver components work unmodified against remote operators.
//
// Remote connections are always supervised (DESIGN.md §8; the zero
// orb.SupervisorOptions is usable): DialSupervised binds an exported key,
// and InstallSupervisedRemoteOperator — with its collective counterpart in
// the subpackage — bridges orb.Supervised state transitions to framework
// port health, so severed links surface as
// ConnectionDegraded/Broken/Restored events. Experiment
// E7b prices the supervision overhead and the chaos suite
// (chaos_test.go, heavier scenarios under -tags chaos) proves
// convergence-under-faults. The collective subpackage
// (repro/internal/dist/collective) carries §6.3 M→N redistribution over
// the same machinery, measured by experiment E11.
package dist
