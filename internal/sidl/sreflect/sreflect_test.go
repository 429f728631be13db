package sreflect

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sidl"
)

const corpus = `
package esi {
  interface Object { string typeName(); }
  interface Vector extends Object {
    int length();
    double dot(in array<double,1> other);
  }
  class VecImpl implements-all Vector {}
  enum Norm { One, Two }
}
`

func table(t *testing.T) *sidl.Table {
	t.Helper()
	f, err := sidl.Parse(corpus)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFromTableShapes(t *testing.T) {
	infos := FromTable(table(t))
	byName := map[string]*TypeInfo{}
	for _, ti := range infos {
		byName[ti.QName] = ti
	}
	vec := byName["esi.Vector"]
	if vec == nil || vec.Kind != "interface" {
		t.Fatalf("esi.Vector = %+v", vec)
	}
	if len(vec.Methods) != 3 { // typeName, length, dot
		t.Fatalf("vector methods = %+v", vec.Methods)
	}
	m, ok := vec.Method("dot")
	if !ok || m.GoName != "Dot" || m.Ret != "double" {
		t.Errorf("dot = %+v", m)
	}
	if len(m.Params) != 1 || m.Params[0].Type != "array<double,1>" || m.Params[0].Mode != "in" {
		t.Errorf("dot params = %+v", m.Params)
	}
	if byName["esi.Norm"].Kind != "enum" {
		t.Errorf("norm kind = %s", byName["esi.Norm"].Kind)
	}
	cls := byName["esi.VecImpl"]
	if cls.Kind != "class" || len(cls.Extends) != 1 || cls.Extends[0] != "esi.Vector" {
		t.Errorf("class = %+v", cls)
	}
}

// TestRegistrySubtype checks the subtype edges the registry records from
// a resolved table: each type's direct supertypes, as sidl.Table's
// IsSubtype walks them.
func TestRegistrySubtype(t *testing.T) {
	r := NewRegistry()
	r.RegisterTable(table(t))
	cases := []struct {
		qname   string
		extends []string
	}{
		{"esi.Object", nil},
		{"esi.Vector", []string{"esi.Object"}},
		{"esi.VecImpl", []string{"esi.Vector"}},
	}
	for _, tc := range cases {
		ti, ok := r.Lookup(tc.qname)
		if !ok {
			t.Fatalf("%s not registered", tc.qname)
		}
		if !slices.Equal(ti.Extends, tc.extends) {
			t.Errorf("%s extends %v, want %v", tc.qname, ti.Extends, tc.extends)
		}
	}
	if _, ok := r.Lookup("esi.Missing"); ok {
		t.Error("esi.Missing registered")
	}
}

// vecImpl is a Go implementation to invoke dynamically.
type vecImpl struct {
	data []float64
}

func (v *vecImpl) TypeName() string { return "esi.VecImpl" }
func (v *vecImpl) Length() int32    { return int32(len(v.data)) }
func (v *vecImpl) Dot(other []float64) float64 {
	var s float64
	for i, x := range v.data {
		s += x * other[i]
	}
	return s
}

func TestInvoke(t *testing.T) {
	r := NewRegistry()
	r.RegisterTable(table(t))
	info, ok := r.Lookup("esi.Vector")
	if !ok {
		t.Fatal("esi.Vector not registered")
	}
	obj, err := NewObject(info, &vecImpl{data: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := obj.Call("dot", []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].(float64) != 32 {
		t.Errorf("dot = %v", res)
	}
	res, err = obj.Call("length")
	if err != nil || res[0].(int32) != 3 {
		t.Errorf("length = %v, %v", res, err)
	}
	res, err = obj.Call("typeName")
	if err != nil || res[0].(string) != "esi.VecImpl" {
		t.Errorf("typeName = %v, %v", res, err)
	}
}

func TestInvokeErrors(t *testing.T) {
	r := NewRegistry()
	r.RegisterTable(table(t))
	info, _ := r.Lookup("esi.Vector")
	obj, err := NewObject(info, &vecImpl{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Call("nonesuch"); !errors.Is(err, ErrNoMethod) {
		t.Errorf("err = %v", err)
	}
	if _, err := obj.Call("dot"); !errors.Is(err, ErrBadArgs) {
		t.Errorf("missing arg err = %v", err)
	}
	if _, err := obj.Call("dot", "wrong type"); !errors.Is(err, ErrBadArgs) {
		t.Errorf("bad type err = %v", err)
	}
	// Implementation missing a method.
	if _, err := NewObject(info, struct{}{}); !errors.Is(err, ErrNotBound) {
		t.Errorf("unbound err = %v", err)
	}
}

func TestInvokeConvertsCompatibleArgs(t *testing.T) {
	r := NewRegistry()
	r.RegisterTable(table(t))
	info, _ := r.Lookup("esi.Vector")
	obj, err := NewObject(info, &vecImpl{data: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	// Pass an int where float64 elements are expected — not convertible.
	if _, err := obj.Call("dot", 5); !errors.Is(err, ErrBadArgs) {
		t.Errorf("err = %v", err)
	}
}

func TestInvokeNilArg(t *testing.T) {
	r := NewRegistry()
	r.RegisterTable(table(t))
	info, _ := r.Lookup("esi.Vector")
	obj, _ := NewObject(info, &vecImpl{})
	res, err := obj.Call("dot", nil)
	if err != nil || res[0].(float64) != 0 {
		t.Errorf("dot(nil) = %v, %v", res, err)
	}
}

// inoutImpl exercises the inout-by-value and throws conventions.
type inoutImpl struct{}

func (inoutImpl) Scale(factor float64, v *[]float64) error {
	if factor == 0 {
		return errors.New("zero factor")
	}
	for i := range *v {
		(*v)[i] *= factor
	}
	return nil
}

// inoutObject binds inoutImpl to a one-method type record.
func inoutObject(t *testing.T) *Object {
	t.Helper()
	info := &TypeInfo{QName: "t.Inout", Methods: []MethodInfo{{Name: "scale", GoName: "Scale"}}}
	obj, err := NewObject(info, inoutImpl{})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestInvokeInoutByValue(t *testing.T) {
	// Pass the inout argument BY VALUE (as a marshaling boundary would):
	// the final pointee must come back as an extra result.
	res, err := inoutObject(t).Call("scale", 2.0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	got := res[0].([]float64)
	if got[0] != 2 || got[2] != 6 {
		t.Errorf("scaled = %v", got)
	}
}

func TestInvokeInoutByPointer(t *testing.T) {
	v := []float64{1, 2}
	res, err := inoutObject(t).Call("scale", 3.0, &v)
	if err != nil {
		t.Fatal(err)
	}
	// Direct pointer: no extra result, mutation in place.
	if len(res) != 0 || v[1] != 6 {
		t.Errorf("res=%v v=%v", res, v)
	}
}

func TestInvokeTrailingErrorBecomesErrInvoke(t *testing.T) {
	_, err := inoutObject(t).Call("scale", 0.0, []float64{1})
	if !errors.Is(err, ErrInvoke) {
		t.Fatalf("err = %v, want ErrInvoke", err)
	}
}

func TestInvokeNilInoutGetsFreshPointer(t *testing.T) {
	res, err := inoutObject(t).Call("scale", 2.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	if got := res[0].([]float64); len(got) != 0 {
		t.Errorf("pointee = %v", got)
	}
}

// shapes implements one method per CallSink shape.
type shapes struct{ last []float64 }

func (s *shapes) Scale(xs []float64)         { s.last = xs }
func (s *shapes) Twice(x float64) float64    { return 2 * x }
func (s *shapes) Succ(n int32) int32         { return n + 1 }
func (s *shapes) Shout(m string) string      { return m + "!" }
func (s *shapes) Sum(a, b float64) float64   { return a + b }
func (s *shapes) Total(xs []float64) float64 { return xs[0] + xs[1] }
func (s *shapes) Fill(n int32, xs []float64) { xs[0] = float64(n) }
func (s *shapes) Nothing()                   {}
func (s *shapes) Pi() float64                { return 3.5 }

// TestCallBoxesCallSinkResults pins Call over CallSink's shapes: each
// result comes back boxed, a call with no results returns nil, and a
// shape CallSink does not take exactly (an int32 for a double) falls
// back to reflection, which converts it. A boxed call allocates the
// result slice, the boxed value and the frame of the reflect-made method
// value (a servant without a Skeleton), no more.
func TestCallBoxesCallSinkResults(t *testing.T) {
	f, err := sidl.Parse(`package t {
  interface S {
    void scale(in array<double,1> xs);
    double twice(in double x);
    int succ(in int n);
    string shout(in string m);
    double sum(in double a, in double b);
    double total(in array<double,1> xs);
    void fill(in int n, in array<double,1> xs);
    void nothing();
    double pi();
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sidl.Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.RegisterTable(tbl)
	info, _ := r.Lookup("t.S")
	impl := &shapes{}
	obj, err := NewObject(info, impl)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1, 2}
	cases := []struct {
		method string
		args   []any
		want   any // nil: no results
	}{
		{"scale", []any{xs}, nil},
		{"twice", []any{1.5}, 3.0},
		{"succ", []any{int32(4)}, int32(5)},
		{"shout", []any{"hi"}, "hi!"},
		{"sum", []any{1.0, 2.0}, 3.0},
		{"total", []any{xs}, 3.0},
		{"fill", []any{int32(9), xs}, nil},
		{"nothing", nil, nil},
		{"pi", nil, 3.5},
		{"twice", []any{int32(2)}, 4.0},
	}
	for _, c := range cases {
		res, err := obj.Call(c.method, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", c.method, err)
		}
		if c.want == nil {
			if res != nil {
				t.Errorf("%s returned %v, want nil", c.method, res)
			}
		} else if len(res) != 1 || res[0] != c.want {
			t.Errorf("%s(%v) = %v, want [%v]", c.method, c.args, res, c.want)
		}
	}
	if xs[0] != 9 || &impl.last[0] != &xs[0] {
		t.Errorf("void shapes did not run: xs=%v", xs)
	}
	args := []any{1.25, 2.5}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := obj.Call("sum", args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Call(sum) = %v allocs, want ≤ 3 (result slice, boxed value, method-value frame)", allocs)
	}
}
