package ccl

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/array"
	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	dcoll "repro/internal/dist/collective"
	"repro/internal/esi"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/repo"
	"repro/internal/transport"
)

// Compile instruments.
var (
	cCompiles        = obs.NewCounter("ccl.compiles")
	cLockVerified    = obs.NewCounter("ccl.lock_verified")
	cLockCreated     = obs.NewCounter("ccl.lock_created")
	cRemoteInstalled = obs.NewCounter("ccl.remotes_installed")
)

// Options configures New and Compile.
type Options struct {
	// LockPath is the lockfile Compile verifies or creates. "" skips
	// lockfile handling (tests, throwaway assemblies); Load-driven callers
	// pass DefaultLockPath(doc.Path).
	LockPath string
	// DefaultSupervisor seeds the supervision settings a remote's
	// supervise block overrides.
	DefaultSupervisor orb.SupervisorOptions
}

// ExportResult records one published port.
type ExportResult struct {
	Instance, Port string
	// Key is the exported object key ("instance/port").
	Key string
	// Addr is the bound address.
	Addr string
}

// Assembly is a live application: every document applied so far, lowered
// onto one repo.Builder. Close releases everything the applies opened
// (remote connections, exporters, repository clients).
type Assembly struct {
	App *repo.Builder
	// Lock, LockPath and LockCreated describe the most recent Apply
	// (LockPath is "" when lockfile handling was skipped).
	Lock        *Lock
	LockPath    string
	LockCreated bool
	// Resolutions lists every typed component's resolved version and
	// Exports every published port, in application order.
	Resolutions []Resolution
	Exports     []ExportResult

	opts    Options
	closers []func()
}

// Close releases the assembly's connections and servers, newest first.
// The framework and its local components stay installed.
func (a *Assembly) Close() { a.unwind(0) }

// unwind runs and drops the closers registered since mark, newest first.
func (a *Assembly) unwind(mark int) {
	for i := len(a.closers) - 1; i >= mark; i-- {
		a.closers[i]()
	}
	a.closers = a.closers[:mark]
}

// New returns an empty assembly for documents — or fragments of one — to
// be applied to. Its application container carries every builtin
// implementation a document can name by type (ESI and consumer deposits,
// in-process + distributed flavor), so network-resolved entries find
// their local factories (factories never serialize).
func New(opts Options) (*Assembly, error) {
	r := repo.New()
	if err := esi.Deposit(r); err != nil {
		return nil, err
	}
	if err := DepositConsumer(r); err != nil {
		return nil, err
	}
	app := repo.NewBuilder(r, framework.Options{Flavor: cca.FlavorInProcess | cca.FlavorDistributed})
	return &Assembly{App: app, opts: opts}, nil
}

// Compile lowers a whole document onto a new assembly: New, then Apply
// with opts.LockPath.
func Compile(d *Document, opts Options) (*Assembly, error) {
	a, err := New(opts)
	if err != nil {
		return nil, err
	}
	if err := a.Apply(d, opts.LockPath); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Apply validates the document — whose exports and connects may also name
// instances already live in the assembly, so a fragment as small as one
// declaration applies — resolves its typed components, verifies or creates
// the lockfile at lockPath ("" skips it), and lowers it onto the
// configuration API: Builder.Create or a provider install for components,
// supervised remote-port installs for remotes, ORB exporters for exports,
// framework connects for wirings — in declaration order. On error every
// effect of this Apply with a lifetime (connections, servers) is released;
// components it installed remain.
func (a *Assembly) Apply(d *Document, lockPath string) error {
	app := a.App
	if err := validate(d, func(name string) bool { _, ok := app.Component(name); return ok }); err != nil {
		return err
	}
	mark := len(a.closers)
	fail := func(err error) error {
		a.unwind(mark)
		return err
	}

	// Resolve typed components — against the repository stanza's address
	// when present (dialed here, closed with the assembly), the local
	// repository otherwise — and verify/create the lockfile.
	var src Source = app.Repo
	srcName := "local"
	if d.Repository != nil {
		client, err := repo.DialService(d.Repository.Address)
		if err != nil {
			return fmt.Errorf("%s: dialing repository: %w", d.pos(d.Repository.Line), err)
		}
		a.closers = append(a.closers, func() { client.Close() }) //nolint:errcheck
		src, srcName = client, "repository"
	}
	res, rev, err := ResolveComponents(d, src, srcName)
	if err != nil {
		return fail(err)
	}
	lock := NewLock(d, res, rev)
	lockCreated := false
	if lockPath != "" {
		if lockCreated, err = VerifyOrCreate(lockPath, lock); err != nil {
			return fail(err)
		}
		if lockCreated {
			cLockCreated.Inc()
		} else {
			cLockVerified.Inc()
		}
	}

	// Instantiate components.
	byInstance := map[string]Resolution{}
	for _, r := range res {
		byInstance[r.Instance] = r
	}
	for _, c := range d.Components {
		if c.Provider != "" {
			p, ok := BuiltinProviders()[c.Provider]
			if !ok {
				return fail(fmt.Errorf("%s: %w: %q for component %q", d.pos(c.Line), ErrUnknownProvider, c.Provider, c.Name))
			}
			comp, err := p(c.Config)
			if err != nil {
				return fail(fmt.Errorf("%s: provider %s for %q: %w", d.pos(c.Line), c.Provider, c.Name, err))
			}
			if err := app.Fw.Install(c.Name, comp); err != nil {
				return fail(fmt.Errorf("%s: installing %q: %w", d.pos(c.Line), c.Name, err))
			}
			continue
		}
		// Typed: instantiation is always local — factories never
		// serialize. A network-resolved entry whose type the local
		// repository has not deposited is merged in (description, SIDL,
		// ports) so the local table knows it, but without a locally bound
		// factory it cannot instantiate.
		if _, err := app.Repo.Retrieve(c.Type); errors.Is(err, repo.ErrNotFound) {
			r := byInstance[c.Name]
			if err := app.Repo.Deposit(*r.Entry); err != nil {
				return fail(fmt.Errorf("%s: merging fetched entry %q: %w", d.pos(c.Line), c.Type, err))
			}
		}
		if err := app.Create(c.Name, c.Type); err != nil {
			if errors.Is(err, repo.ErrNoFactory) {
				err = fmt.Errorf("%w (factories never serialize: bind one with Repository.BindFactory, or declare a provider)", err)
			}
			return fail(fmt.Errorf("%s: creating %q: %w", d.pos(c.Line), c.Name, err))
		}
		comp, _ := app.Component(c.Name)
		if err := applyConfig(d, c, comp); err != nil {
			return fail(err)
		}
	}

	// Remote proxies. The address's scheme picks the transport.
	for _, r := range d.Remotes {
		tr, addr, err := transport.ForScheme(r.Address)
		if err != nil {
			return fail(fmt.Errorf("%s: %w: remote %q: %v", d.pos(r.Line), ErrBadValue, r.Name, err))
		}
		sup := supervisorOptions(a.opts.DefaultSupervisor, r.Supervise)
		var closer interface{ Close() error }
		if r.Dist != nil {
			var dm array.DataMap
			if r.Dist.Map == "block" {
				dm = array.NewBlockMap(r.Dist.Length, r.Dist.Ranks)
			} else {
				dm = array.NewCyclicMap(r.Dist.Length, r.Dist.Ranks, r.Dist.Block)
			}
			closer, err = dcoll.InstallRemoteDistArray(app.Fw, r.Name, r.Port, tr, addr, r.Key, dm, dcoll.Options{Supervisor: sup})
		} else {
			closer, err = dist.InstallSupervisedRemoteOperator(app.Fw, r.Name, r.Port, tr, addr, r.Key, r.Type, sup)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: remote %q: %w", d.pos(r.Line), r.Name, err))
		}
		a.closers = append(a.closers, func() { closer.Close() }) //nolint:errcheck
		cRemoteInstalled.Inc()
	}

	// Exports.
	var exports []ExportResult
	for _, e := range d.Exports {
		l, err := orb.ListenAddr(e.Address)
		if err != nil {
			return fail(fmt.Errorf("%s: export %s.%s: %w", d.pos(e.Line), e.Instance, e.Port, err))
		}
		exp := dist.NewExporter(app.Fw, l)
		key, err := exp.Export(e.Instance, e.Port)
		if err != nil {
			exp.Close()
			return fail(fmt.Errorf("%s: export %s.%s: %w", d.pos(e.Line), e.Instance, e.Port, err))
		}
		a.closers = append(a.closers, exp.Close)
		exports = append(exports, ExportResult{
			Instance: e.Instance, Port: e.Port, Key: key, Addr: exp.Addr(),
		})
	}

	// Wirings.
	for _, c := range d.Connects {
		if _, err := app.Fw.Connect(c.User, c.UsesPort, c.Provider, c.ProvidesPort); err != nil {
			return fail(fmt.Errorf("%s: connect %s.%s -> %s.%s: %w", d.pos(c.Line), c.User, c.UsesPort, c.Provider, c.ProvidesPort, err))
		}
	}
	a.Lock, a.LockPath, a.LockCreated = lock, lockPath, lockCreated
	a.Resolutions = append(a.Resolutions, res...)
	a.Exports = append(a.Exports, exports...)
	cCompiles.Inc()
	return nil
}

// applyConfig applies a typed component's config block through the
// optional setter interfaces the component implements.
func applyConfig(d *Document, c *ComponentDecl, comp cca.Component) error {
	for _, kv := range c.Config {
		switch kv.Key {
		case "tolerance":
			v, err := strconv.ParseFloat(kv.Value, 64)
			if err != nil {
				return fmt.Errorf("%s: %w: tolerance = %q is not a number", d.pos(kv.Line), ErrBadValue, kv.Value)
			}
			t, ok := comp.(interface{ SetTolerance(float64) })
			if !ok {
				return fmt.Errorf("%s: %w: %q does not accept `tolerance`", d.pos(kv.Line), ErrBadValue, c.Name)
			}
			t.SetTolerance(v)
		case "maxiter":
			v, err := strconv.Atoi(kv.Value)
			if err != nil {
				return fmt.Errorf("%s: %w: maxiter = %q is not an integer", d.pos(kv.Line), ErrBadValue, kv.Value)
			}
			t, ok := comp.(interface{ SetMaxIterations(int32) })
			if !ok {
				return fmt.Errorf("%s: %w: %q does not accept `maxiter`", d.pos(kv.Line), ErrBadValue, c.Name)
			}
			t.SetMaxIterations(int32(v))
		default:
			return fmt.Errorf("%s: %w: %q in %s's config (typed components accept: tolerance, maxiter)", d.pos(kv.Line), ErrUnknownKey, kv.Key, c.Name)
		}
	}
	return nil
}

// supervisorOptions folds a supervise block over the compile defaults.
func supervisorOptions(def orb.SupervisorOptions, s *SuperviseDecl) orb.SupervisorOptions {
	o := def
	if s == nil {
		return o
	}
	if s.Retries > 0 {
		o.MaxAttempts = s.Retries
	}
	if s.Breaker > 0 {
		o.BreakerThreshold = s.Breaker
	}
	if s.Timeout > 0 {
		o.ConnectTimeout = s.Timeout
	}
	if s.Heartbeat > 0 {
		o.Heartbeat = s.Heartbeat
	}
	return o
}
