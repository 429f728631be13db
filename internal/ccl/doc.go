// Package ccl implements the reproduction's declarative assembly
// language: a small configuration language in which a whole CCA
// application — which components, at which versions, wired how, living
// where — is one checked-in document instead of a Go program full of
// builder calls. It is the textual face of the paper's Figure 2
// composition tool, patterned after the Cactus/CCA configuration- and
// component-retrieval-language pair.
//
// The pipeline is parse → validate → resolve → lock → compile:
//
//   - Parse (parse.go, lex.go) turns source into a Document AST. The
//     grammar is line-oriented: an app stanza, an optional repository
//     stanza, component/remote/export stanzas, and connect statements,
//     with ${VAR} interpolation inside quoted strings.
//   - Validate (validate.go) enforces cross-cutting rules (unique
//     instances, required keys, declared endpoints) and fills grammar
//     defaults. Every diagnostic wraps one of the package's typed errors
//     with a path:line position.
//   - ResolveComponents (resolve.go) turns each component's (type,
//     version constraint) into a concrete repository entry — against the
//     networked repository service (repro/internal/repo.Client, with its
//     revision-tagged cache) when the document names one, or the local
//     repository otherwise.
//   - The Lock (lockfile.go) records the resolution deterministically;
//     compiles verify an existing lockfile and fail loudly when new
//     deposits would shift what a constraint resolves to.
//   - Compile (compile.go) lowers the document onto repo.Builder, the
//     one application container: Builder.Create and framework connects
//     for components and wirings, supervised remote-port installs (scalar
//     and collective) for remote stanzas, one ORB listener per
//     export. An Assembly is live — Compile is New plus
//     Apply, and Apply takes further documents or single-declaration
//     fragments, which is how cmd/ccafe runs its assembling verbs.
//     Factories never serialize, so typed components always instantiate
//     from locally bound factories; providers (providers.go) cover
//     constructor-argument components like matrix-wrapping operators.
//
// docs/CCL.md is the language reference — full grammar, stanza and key
// vocabulary, version-constraint syntax, worked examples, and an errors
// appendix keyed to this package's typed errors. The checked-in example
// assemblies (examples/solverswap/solverswap.ccl,
// examples/distviz/distviz.ccl) compile through cmd/ccafe's `load`
// command and are held equivalent to their Go-programmed twins by this
// package's end-to-end tests.
package ccl
