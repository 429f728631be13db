// Package sreflect is the SIDL runtime's reflection and dynamic-method-
// invocation support, modeled — as the paper specifies in §5 — "based on
// the design of the Java library classes in java.lang and
// java.lang.reflect": "Interface information for dynamically loaded
// components is often unavailable at compile time; thus, components and the
// associated composition tools and frameworks must discover, query, and
// execute methods at run time."
//
// TypeInfo metadata is registered either by generated code (codegen's
// Reflection option) or directly from a resolved sidl.Table via FromTable.
// Object.Call performs dynamic method invocation against any Go
// implementation using the standard reflect package.
package sreflect

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/sidl"
)

// Errors reported by the reflection runtime.
var (
	ErrNoMethod = errors.New("sreflect: unknown method")
	ErrBadArgs  = errors.New("sreflect: argument mismatch")
	ErrNotBound = errors.New("sreflect: object does not implement method")
)

// ParamInfo describes one parameter of a SIDL method.
type ParamInfo struct {
	Name string
	Type string // SIDL type spelling, e.g. "array<double,1>"
	Mode string // "in", "out", or "inout"
}

// MethodInfo describes one method of a SIDL interface.
type MethodInfo struct {
	Name   string // SIDL name ("solve")
	GoName string // Go binding name ("Solve")
	Ret    string // SIDL return type spelling
	Owner  string // qualified name of the declaring interface
	Params []ParamInfo
	Static bool
}

// TypeInfo is the reflection record of one SIDL type.
type TypeInfo struct {
	QName   string
	Kind    string // "interface", "class", or "enum"
	Extends []string
	Methods []MethodInfo
}

// Method finds a method by SIDL name.
func (t *TypeInfo) Method(name string) (*MethodInfo, bool) {
	for i := range t.Methods {
		if t.Methods[i].Name == name {
			return &t.Methods[i], true
		}
	}
	return nil, false
}

// Registry holds reflection metadata for a set of SIDL types. The zero
// value is unusable; use NewRegistry. Global is the process-wide registry
// that generated bindings register into.
type Registry struct {
	mu    sync.RWMutex
	types map[string]*TypeInfo
}

// Global is the process-wide registry used by generated code.
var Global = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: map[string]*TypeInfo{}}
}

// Register adds a type record. Re-registering an identical QName replaces
// the record (generated files may be re-initialized in tests).
func (r *Registry) Register(t *TypeInfo) {
	r.mu.Lock()
	r.types[t.QName] = t
	r.mu.Unlock()
}

// Lookup finds a type record by qualified name.
func (r *Registry) Lookup(qname string) (*TypeInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.types[qname]
	return t, ok
}

// FromTable converts a resolved SIDL table into reflection records — the
// compiler-side path for tools that have the table in hand (repository,
// ccafe) rather than generated init functions.
func FromTable(t *sidl.Table) []*TypeInfo {
	var out []*TypeInfo
	for _, q := range t.Order {
		switch t.Lookup(q) {
		case "interface":
			iface := t.Interfaces[q]
			ti := &TypeInfo{QName: q, Kind: "interface"}
			for _, e := range iface.Extends {
				ti.Extends = append(ti.Extends, e.QName)
			}
			for _, m := range iface.Methods {
				ti.Methods = append(ti.Methods, methodInfo(m))
			}
			out = append(out, ti)
		case "class":
			cls := t.Classes[q]
			ti := &TypeInfo{QName: q, Kind: "class"}
			if cls.Base != nil {
				ti.Extends = append(ti.Extends, cls.Base.QName)
			}
			for _, i := range cls.Implements {
				ti.Extends = append(ti.Extends, i.QName)
			}
			for _, m := range cls.Methods {
				ti.Methods = append(ti.Methods, methodInfo(m))
			}
			out = append(out, ti)
		case "enum":
			out = append(out, &TypeInfo{QName: q, Kind: "enum"})
		}
	}
	return out
}

func methodInfo(m *sidl.Method) MethodInfo {
	mi := MethodInfo{
		Name:   m.Decl.Name,
		GoName: goExport(m.Decl.Name),
		Ret:    m.Decl.Ret.String(),
		Owner:  m.Owner,
		Static: m.Decl.Static,
	}
	for _, p := range m.Decl.Params {
		mi.Params = append(mi.Params, ParamInfo{Name: p.Name, Type: p.Type.String(), Mode: p.Mode.String()})
	}
	return mi
}

func goExport(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]&^0x20) + s[1:]
}

// RegisterTable registers every type of a resolved table.
func (r *Registry) RegisterTable(t *sidl.Table) {
	for _, ti := range FromTable(t) {
		r.Register(ti)
	}
}

// errorType is the reflect.Type of the error interface.
var errorType = reflect.TypeOf((*error)(nil)).Elem()

// ErrInvoke wraps an error raised by the invoked implementation (the SIDL
// throws path surfaced through dynamic invocation).
var ErrInvoke = errors.New("sreflect: invocation raised")

// invokeMethod is Call's reflection path, operating on an
// already-resolved method value — Object caches these, since MethodByName
// rebuilds the method wrapper (a reflect.FuncOf construction) on every
// lookup.
func invokeMethod(meth reflect.Value, m *MethodInfo, args []any) ([]any, error) {
	mt := meth.Type()
	if mt.NumIn() != len(args) && !mt.IsVariadic() {
		return nil, fmt.Errorf("%w: %s takes %d arguments, got %d", ErrBadArgs, m.GoName, mt.NumIn(), len(args))
	}
	in := make([]reflect.Value, len(args))
	var inoutPtrs []reflect.Value
	for i, a := range args {
		want := mt.In(i)
		if a == nil {
			zero := reflect.Zero(want)
			if want.Kind() == reflect.Ptr {
				// nil inout: pass a fresh pointer so implementations can
				// always write through it, and return the result.
				p := reflect.New(want.Elem())
				in[i] = p
				inoutPtrs = append(inoutPtrs, p)
				continue
			}
			in[i] = zero
			continue
		}
		av := reflect.ValueOf(a)
		switch {
		case av.Type().AssignableTo(want):
			in[i] = av
		case want.Kind() == reflect.Ptr && av.Type().AssignableTo(want.Elem()):
			// inout by value: box into a pointer and report back.
			p := reflect.New(want.Elem())
			p.Elem().Set(av)
			in[i] = p
			inoutPtrs = append(inoutPtrs, p)
		case av.Type().ConvertibleTo(want):
			in[i] = av.Convert(want)
		default:
			return nil, fmt.Errorf("%w: %s argument %d: have %s, want %s", ErrBadArgs, m.GoName, i, av.Type(), want)
		}
	}
	outs := meth.Call(in)
	// Trailing error return = SIDL throws.
	if n := mt.NumOut(); n > 0 && mt.Out(n-1).Implements(errorType) {
		last := outs[n-1]
		if !last.IsNil() {
			return nil, fmt.Errorf("%w: %s: %v", ErrInvoke, m.GoName, last.Interface())
		}
		outs = outs[:n-1]
	}
	res := make([]any, 0, len(outs)+len(inoutPtrs))
	for _, o := range outs {
		res = append(res, o.Interface())
	}
	for _, p := range inoutPtrs {
		res = append(res, p.Elem().Interface())
	}
	return res, nil
}

// Object binds an implementation to its reflection record for repeated
// dynamic calls — the runtime handle composition tools hold for a
// dynamically loaded component.
type Object struct {
	Info *TypeInfo
	Impl any
	// meths caches the bound method values by SIDL method name: resolving a
	// method through MethodByName costs a linear scan plus a fresh wrapper
	// construction per call, which dominates hot dispatch paths.
	meths map[string]reflect.Value
	// funcs caches each bound method extracted as a plain func value, so
	// CallSink can monomorphize common signatures instead of paying
	// reflect.Value.Call's per-invocation frame allocation.
	funcs map[string]any
}

// Skeleton is an optional interface a servant implements to hand the
// runtime direct func values for its hottest methods — the moral
// equivalent of Babel's generated IOR skeletons in the CCA toolchain,
// with reflection as the fallback for everything unbound. BindSkeleton
// is called once, at NewObject time; each fn must have one of the
// CallSink signatures and replaces the reflect method value for that
// SIDL method in both Call and CallSink dispatch. The difference is not
// just speed: a reflect-made method value allocates a receiver frame on
// every invocation, so a servant that wants the ORB's zero-allocation
// server dispatch (ObjectAdapter + CallSink) must bind skeletons.
type Skeleton interface {
	BindSkeleton(bind func(sidlName string, fn any))
}

// NewObject validates that impl is invocable for every method of the type
// (arity-level check) and returns the dynamic handle with every method
// value pre-resolved.
func NewObject(info *TypeInfo, impl any) (*Object, error) {
	v := reflect.ValueOf(impl)
	meths := make(map[string]reflect.Value, len(info.Methods))
	funcs := make(map[string]any, len(info.Methods))
	for i := range info.Methods {
		m := &info.Methods[i]
		mv := v.MethodByName(m.GoName)
		if !mv.IsValid() {
			return nil, fmt.Errorf("%w: %T lacks %s (for %s.%s)", ErrNotBound, impl, m.GoName, info.QName, m.Name)
		}
		meths[m.Name] = mv
		funcs[m.Name] = mv.Interface()
	}
	if sk, ok := impl.(Skeleton); ok {
		sk.BindSkeleton(func(name string, fn any) {
			// Only methods that passed validation above may be rebound;
			// a typo in a skeleton name silently keeping reflect dispatch
			// would be miserable to debug, so unknown names panic.
			if _, known := funcs[name]; !known {
				panic(fmt.Sprintf("sreflect: skeleton binds unknown method %q on %s", name, info.QName))
			}
			funcs[name] = fn
		})
	}
	return &Object{Info: info, Impl: impl, meths: meths, funcs: funcs}, nil
}

// ResultSink receives the results of a dynamic invocation one typed value
// at a time, so a caller that marshals results (the ORB's reply encoder)
// can take them without an []any allocation or interface boxing. Methods
// are named for the result type they accept.
type ResultSink interface {
	ResultFloat64(float64)
	ResultInt32(int32)
	ResultString(string)
}

// CallSink invokes a method by SIDL name through a direct typed call when
// its Go signature is one of the common scalar/array shapes of SIDL
// interfaces — a monomorphic thunk, skipping reflect.Value.Call and its
// per-invocation argument frame — delivering results directly to sink.
// A shape is taken only when every argument matches the formal type
// exactly, so the reflect path's conversion and inout conventions are
// unaffected. handled reports whether the call ran; when it is false
// nothing was invoked and the caller should fall back to Call. A handled
// call with these signatures cannot fail, so err is reserved for future
// error-returning fast paths.
func (o *Object) CallSink(method string, args []any, sink ResultSink) (handled bool, err error) {
	f, ok := o.funcs[method]
	if !ok {
		return false, nil
	}
	switch fn := f.(type) {
	case func():
		if len(args) == 0 {
			fn()
			return true, nil
		}
	case func() float64:
		if len(args) == 0 {
			sink.ResultFloat64(fn())
			return true, nil
		}
	case func(float64) float64:
		if len(args) == 1 {
			if a, ok := args[0].(float64); ok {
				sink.ResultFloat64(fn(a))
				return true, nil
			}
		}
	case func(float64, float64) float64:
		if len(args) == 2 {
			a, ok1 := args[0].(float64)
			b, ok2 := args[1].(float64)
			if ok1 && ok2 {
				sink.ResultFloat64(fn(a, b))
				return true, nil
			}
		}
	case func([]float64) float64:
		if len(args) == 1 {
			if xs, ok := args[0].([]float64); ok {
				sink.ResultFloat64(fn(xs))
				return true, nil
			}
		}
	case func([]float64):
		if len(args) == 1 {
			if xs, ok := args[0].([]float64); ok {
				fn(xs)
				return true, nil
			}
		}
	case func(int32, []float64):
		if len(args) == 2 {
			a, ok1 := args[0].(int32)
			xs, ok2 := args[1].([]float64)
			if ok1 && ok2 {
				fn(a, xs)
				return true, nil
			}
		}
	case func(string) string:
		if len(args) == 1 {
			if s, ok := args[0].(string); ok {
				sink.ResultString(fn(s))
				return true, nil
			}
		}
	case func(int32) int32:
		if len(args) == 1 {
			if a, ok := args[0].(int32); ok {
				sink.ResultInt32(fn(a))
				return true, nil
			}
		}
	}
	return false, nil
}

// Call invokes a method by SIDL name and returns its results: dynamic
// method invocation, the §5 DMI path — slower than the generated stub
// (measured by experiment E7) but requiring no compile-time knowledge of
// the interface. A call CallSink takes runs there; the rest go through
// reflection.
//
// Two SIDL conventions are honoured so DMI works across marshaling
// boundaries (the ORB and distributed ports):
//
//   - inout parameters: when a formal parameter is *T and the supplied
//     argument is a T value (or nil), a fresh pointer is passed and the
//     final pointee is appended to the results (by-value inout round
//     trip);
//   - throws clauses: a trailing error return is stripped from the
//     results; a non-nil error aborts the invocation with ErrInvoke.
func (o *Object) Call(method string, args ...any) ([]any, error) {
	m, ok := o.Info.Method(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoMethod, o.Info.QName, method)
	}
	sink := &anySink{}
	if handled, err := o.CallSink(method, args, sink); handled {
		return sink.out, err
	}
	return invokeMethod(o.meths[method], m, args)
}

// anySink boxes CallSink's results into the slice Call returns. Every
// CallSink shape has at most one result, so the slice lives in buf and
// the sink replaces the one-element []any a boxed call would allocate;
// a call with no results leaves out nil.
type anySink struct {
	buf [1]any
	out []any
}

func (s *anySink) add(v any)               { s.out = append(s.buf[:len(s.out):1], v) }
func (s *anySink) ResultFloat64(v float64) { s.add(v) }
func (s *anySink) ResultInt32(v int32)     { s.add(v) }
func (s *anySink) ResultString(v string)   { s.add(v) }
