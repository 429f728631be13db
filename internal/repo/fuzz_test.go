package repo

// Protocol fuzzing: the cca/repo servant is driven by whatever a remote
// peer decodes into (method, args). It must answer garbage with a typed
// error — never panic, never size an allocation from a number the peer
// chose — keep the store's invariants (a revision that never moves back,
// each name's versions strictly ascending and stored canonically), and
// every fetch body it serves must round-trip through DecodeEntry and
// EncodeEntry.

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/orb"
)

// wireErrors is every error class the servant may answer with.
var wireErrors = []error{ErrBadCall, ErrBadEntry, ErrBadVersion, ErrNotFound, ErrNoMatch, ErrUnknownTyp, ErrVersionOrder}

func FuzzRepoHandle(f *testing.F) {
	seed := func(method string, args ...any) {
		b, err := orb.EncodeAll(args...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(method, b)
	}
	seed("head")
	seed("list")
	seed("describe")
	seed("fetch", "esi.CG", "^1.0", "")
	seed("fetch", "esi.CG", "^1.0", "1.2.0")
	seed("fetch", "esi.CG", ">=3", "")
	seed("fetch", "absent", "*", "")
	seed("fetch", "esi.CG", "^x", "")
	seed("deposit", `{"name":"esi.CG","version":"2.0","provides":[{"Name":"solver","Type":"esi.Solver"}]}`)
	seed("deposit", `{"name":"x.New","sidl":"package x { interface I { int f(); } }","provides":[{"Name":"p","Type":"x.I"}]}`)
	// DecodeEntry's error cases, then deposits that decode but must not
	// commit.
	seed("deposit", "not json")
	seed("deposit", `{"name":""}`)
	seed("deposit", `{"name":"x","flavor":"warp"}`)
	seed("deposit", `{"name":"x","provides":"solver"}`)
	seed("deposit", `{"name":"x","version":"nope"}`)
	seed("deposit", `{"name":"x","sidl":"package {"}`)
	seed("deposit", `{"name":"x","sidl":"package esi { interface Object {} }"}`)
	seed("deposit", `{"name":"x","provides":[{"Name":"p","Type":"no.Such"}]}`)
	seed("deposit", `{"name":"esi.CG","version":"0.1"}`)
	// Calls the protocol does not define.
	seed("fetch", "esi.CG")
	seed("fetch", int32(1), "*", "")
	seed("deposit")
	seed("pillage")

	var (
		r       *Repository
		lastRev int64
		ms      runtime.MemStats
	)
	f.Fuzz(func(t *testing.T, method string, argBytes []byte) {
		args, err := orb.DecodeAll(argBytes)
		if err != nil {
			return // the ORB rejects the request before any servant sees it
		}
		// Fuzzed deposits grow the store; start over now and then so the
		// SIDL world each input re-resolves stays small.
		if r == nil || lastRev > 16 {
			r, lastRev = newSolverService(t), 0
			depositVersions(t, r, "esi.CG", "1.0", "1.2")
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var reply orb.Encoder
		err = r.handle(method, args, &reply)
		runtime.ReadMemStats(&ms)
		// The store holds a few entries and the request a few KB at most;
		// 1 MiB + 64× the input is generous for anything sized from them.
		if grew, limit := ms.TotalAlloc-before, uint64(1<<20+64*len(argBytes)); grew > limit {
			t.Fatalf("%s%v allocated %d bytes (limit %d)", method, args, grew, limit)
		}
		if err != nil && !slices.ContainsFunc(wireErrors, func(target error) bool { return errors.Is(err, target) }) {
			t.Fatalf("%s%v: untyped error %v", method, args, err)
		}

		r.mu.RLock()
		rev := r.revision
		for name, have := range r.entries {
			for i, s := range have {
				if s.e.Version != s.v.String() {
					t.Errorf("%s stored as v%s, canonical v%s", name, s.e.Version, s.v)
				}
				if i > 0 && !have[i-1].v.Less(s.v) {
					t.Errorf("%s versions not ascending: v%s then v%s", name, have[i-1].v, s.v)
				}
			}
		}
		r.mu.RUnlock()
		if rev < lastRev {
			t.Fatalf("%s moved the revision back: %d after %d", method, rev, lastRev)
		}
		lastRev = rev

		if err != nil || method != "fetch" {
			return
		}
		res, err := orb.DecodeAll(reply.Bytes())
		if err != nil || len(res) != 3 {
			t.Fatalf("fetch reply %v, %v", res, err)
		}
		version, body := res[1].(string), res[2].(string)
		if body == "" {
			if version != args[2].(string) {
				t.Fatalf("empty body for v%s against etag %q", version, args[2])
			}
			return
		}
		e, err := DecodeEntry([]byte(body))
		if err != nil || e.Version != version {
			t.Fatalf("fetch body %q (v%s): %+v, %v", body, version, e, err)
		}
		// The body is the stored entry's encoding (factory as a marker only),
		// and decoding is the identity on what it decodes to.
		if held, _, err := r.Resolve(args[0].(string), args[1].(string)); err != nil {
			t.Fatalf("fetch served what Resolve refuses: %v", err)
		} else if raw, _ := EncodeEntry(held); string(raw) != body {
			t.Fatalf("fetch body %q, stored entry encodes as %q", body, raw)
		}
		raw, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeEntry(raw); err != nil || !reflect.DeepEqual(back, e) {
			t.Fatalf("fetch body does not round-trip: %+v vs %+v (%v)", back, e, err)
		}
	})
}
