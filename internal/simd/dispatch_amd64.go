//go:build amd64 && !noasm

package simd

import "unsafe"

// useAVX2 is resolved once at init: AVX2 in CPUID, AVX+OSXSAVE, and the
// OS saving X/Y register state across context switches (XCR0 bits 1-2).
var useAVX2 = hasAVX2()

// Backend names the active kernel implementation, for bench row labels.
func Backend() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

//go:noescape
func dotAVX2(x, y *float64, n int) float64

//go:noescape
func spmvRowAVX2(vals *float64, cols *int, x *float64, n int) float64

//go:noescape
func memcpy8(dst, src unsafe.Pointer, n int)

// minVecLen is the shortest input routed to the assembler: below one full
// 8-lane pass the call overhead exceeds the vector win and the kernels
// would run their scalar tails anyway.
const minVecLen = 8

// Dot returns the dot product over min(len(x), len(y)) elements,
// bit-identical to DotGo.
func Dot(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if !useAVX2 || n < minVecLen {
		return DotGo(x, y)
	}
	return dotAVX2(&x[0], &y[0], n)
}

// SpMVRow returns the dot product of a CSR row's stored values with the
// gathered entries of x, bit-identical to SpMVRowGo. Every cols value
// must be a valid index into x.
func SpMVRow(vals []float64, cols []int, x []float64) float64 {
	n := len(vals)
	if len(cols) < n {
		n = len(cols)
	}
	if !useAVX2 || n < minVecLen {
		return SpMVRowGo(vals, cols, x)
	}
	return spmvRowAVX2(&vals[0], &cols[0], &x[0], n)
}

// PackF64LE writes src as little-endian bytes into dst (8*len(src)
// bytes); panics if dst is too short.
func PackF64LE(dst []byte, src []float64) {
	n := len(src)
	if len(dst) < 8*n {
		panic("simd: PackF64LE: dst shorter than 8*len(src)")
	}
	if !useAVX2 || n < minVecLen {
		PackF64LEGo(dst, src)
		return
	}
	memcpy8(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), n)
}

// UnpackF64LE fills dst from little-endian bytes in src (8*len(dst)
// bytes); panics if src is too short.
func UnpackF64LE(dst []float64, src []byte) {
	n := len(dst)
	if len(src) < 8*n {
		panic("simd: UnpackF64LE: src shorter than 8*len(dst)")
	}
	if !useAVX2 || n < minVecLen {
		UnpackF64LEGo(dst, src)
		return
	}
	memcpy8(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), n)
}
