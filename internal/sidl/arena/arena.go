// Package arena provides the per-call scratch allocator behind the ORB's
// zero-allocation decode path. A CDR decoder attached to an Arena carves
// every decoded value — array payloads, strings, and the interface boxes
// that carry them — out of reusable typed slabs instead of the heap. After
// the call completes, Reset truncates the slabs in O(1) and the next call
// reuses the same memory, so the steady-state remote-call path performs
// zero allocations (verified by AllocsPerRun tests in internal/orb).
//
// Lifetime contract: everything an Arena returns — slices, strings, and
// any-boxed values — is valid only until Reset. Holders must copy what
// they keep. The ORB's dispatch path already imposes exactly this contract
// on servants ("must not retain args past the call"), which is what makes
// arena-backed arguments safe to hand them.
//
// An Arena is not safe for concurrent use; the ORB pools one per dispatch.
package arena

import "unsafe"

// Arena is a bump allocator over typed slabs. The zero value is ready to
// use; slabs are allocated on first demand and retained across Reset, so
// allocation cost amortizes to zero once the slabs have grown to the
// workload's high-water mark.
type Arena struct {
	f64  []float64
	i32  []int32
	i64  []int64
	ints []int
	byt  []byte

	// Header slabs back the interface boxes: an eface's data word must
	// point at a stable copy of the value, and these arrays are where
	// those copies live. Growth via append abandons the old array to the
	// efaces already pointing into it (kept alive by them), so handed-out
	// boxes stay valid until Reset even across growth.
	f64h [][]float64
	i32h [][]int32
	byth [][]byte
	strs []string
}

// Reset recycles every slab. All values previously returned by this arena
// become invalid: their storage will be overwritten by subsequent use.
func (a *Arena) Reset() {
	a.f64 = a.f64[:0]
	a.i32 = a.i32[:0]
	a.i64 = a.i64[:0]
	a.ints = a.ints[:0]
	a.byt = a.byt[:0]
	a.f64h = a.f64h[:0]
	a.i32h = a.i32h[:0]
	a.byth = a.byth[:0]
	a.strs = a.strs[:0]
}

// Slab sizing: start big enough that typical calls never grow, double
// thereafter. A slab that cannot fit n elements is replaced; the old slab
// stays alive through the slices already handed out of it.
const minSlab = 1024

func grown(have, need int) int {
	n := 2 * have
	if n < minSlab {
		n = minSlab
	}
	for n < need {
		n *= 2
	}
	return n
}

// Float64s returns an uninitialized n-element slice from the slab.
func (a *Arena) Float64s(n int) []float64 {
	if len(a.f64)+n > cap(a.f64) {
		a.f64 = make([]float64, 0, grown(cap(a.f64), n))
	}
	l := len(a.f64)
	a.f64 = a.f64[:l+n]
	return a.f64[l : l+n : l+n]
}

// Int32s returns an uninitialized n-element slice from the slab.
func (a *Arena) Int32s(n int) []int32 {
	if len(a.i32)+n > cap(a.i32) {
		a.i32 = make([]int32, 0, grown(cap(a.i32), n))
	}
	l := len(a.i32)
	a.i32 = a.i32[:l+n]
	return a.i32[l : l+n : l+n]
}

// Bytes returns an uninitialized n-byte slice from the slab.
func (a *Arena) Bytes(n int) []byte {
	if len(a.byt)+n > cap(a.byt) {
		a.byt = make([]byte, 0, grown(cap(a.byt), n))
	}
	l := len(a.byt)
	a.byt = a.byt[:l+n]
	return a.byt[l : l+n : l+n]
}

// Boxing. Converting a value to `any` normally heap-allocates the value
// copy the interface's data word points at. These helpers place that copy
// in a slab instead and splice its address into an eface whose type word
// is taken from a package-level prototype, so the conversion itself
// allocates nothing. The layout assumption — interface{} is (type, data)
// pointer pair, with non-pointer-shaped values held indirectly — is the
// one the runtime has had since Go 1.4 and the same one package reflect
// depends on.

type eface struct {
	typ, data unsafe.Pointer
}

var (
	protoF64      any = float64(0)
	protoI32      any = int32(0)
	protoI64      any = int64(0)
	protoInt      any = int(0)
	protoStr      any = ""
	protoF64Slice any = []float64(nil)
	protoI32Slice any = []int32(nil)
	protoBytes    any = []byte(nil)

	emptyStr any = ""
)

func box(proto any, data unsafe.Pointer) any {
	a := proto
	(*eface)(unsafe.Pointer(&a)).data = data
	return a
}

// AnyFloat64 boxes v in slab storage.
func (a *Arena) AnyFloat64(v float64) any {
	s := a.Float64s(1)
	s[0] = v
	return box(protoF64, unsafe.Pointer(&s[0]))
}

// AnyInt32 boxes v in slab storage.
func (a *Arena) AnyInt32(v int32) any {
	s := a.Int32s(1)
	s[0] = v
	return box(protoI32, unsafe.Pointer(&s[0]))
}

// AnyInt64 boxes v in slab storage.
func (a *Arena) AnyInt64(v int64) any {
	if len(a.i64) == cap(a.i64) {
		a.i64 = make([]int64, 0, grown(cap(a.i64), 1))
	}
	a.i64 = append(a.i64, v)
	return box(protoI64, unsafe.Pointer(&a.i64[len(a.i64)-1]))
}

// AnyInt boxes v in slab storage.
func (a *Arena) AnyInt(v int) any {
	if len(a.ints) == cap(a.ints) {
		a.ints = make([]int, 0, grown(cap(a.ints), 1))
	}
	a.ints = append(a.ints, v)
	return box(protoInt, unsafe.Pointer(&a.ints[len(a.ints)-1]))
}

// AnyString copies b into the arena and boxes it as a string.
func (a *Arena) AnyString(b []byte) any {
	if len(b) == 0 {
		return emptyStr
	}
	buf := a.Bytes(len(b))
	copy(buf, b)
	a.strs = append(a.strs, unsafe.String(&buf[0], len(buf)))
	return box(protoStr, unsafe.Pointer(&a.strs[len(a.strs)-1]))
}

// AnyFloat64Slice boxes s (itself typically arena storage).
func (a *Arena) AnyFloat64Slice(s []float64) any {
	a.f64h = append(a.f64h, s)
	return box(protoF64Slice, unsafe.Pointer(&a.f64h[len(a.f64h)-1]))
}

// AnyInt32Slice boxes s (itself typically arena storage).
func (a *Arena) AnyInt32Slice(s []int32) any {
	a.i32h = append(a.i32h, s)
	return box(protoI32Slice, unsafe.Pointer(&a.i32h[len(a.i32h)-1]))
}

// AnyBytes copies b into the arena and boxes it as a []byte.
func (a *Arena) AnyBytes(b []byte) any {
	buf := a.Bytes(len(b))
	copy(buf, b)
	a.byth = append(a.byth, buf)
	return box(protoBytes, unsafe.Pointer(&a.byth[len(a.byth)-1]))
}
