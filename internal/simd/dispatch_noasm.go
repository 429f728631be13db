//go:build !amd64 || noasm

package simd

// Backend names the active kernel implementation, for bench row labels.
func Backend() string { return "go" }

// Dot returns the dot product over min(len(x), len(y)) elements.
func Dot(x, y []float64) float64 { return DotGo(x, y) }

// SpMVRow returns the dot product of a CSR row's stored values with the
// gathered entries of x. Every cols value must be a valid index into x.
func SpMVRow(vals []float64, cols []int, x []float64) float64 {
	return SpMVRowGo(vals, cols, x)
}

// PackF64LE writes src as little-endian bytes into dst (8*len(src)
// bytes); panics if dst is too short.
func PackF64LE(dst []byte, src []float64) {
	if len(dst) < 8*len(src) {
		panic("simd: PackF64LE: dst shorter than 8*len(src)")
	}
	PackF64LEGo(dst, src)
}

// UnpackF64LE fills dst from little-endian bytes in src (8*len(dst)
// bytes); panics if src is too short.
func UnpackF64LE(dst []float64, src []byte) {
	if len(src) < 8*len(dst) {
		panic("simd: UnpackF64LE: src shorter than 8*len(dst)")
	}
	UnpackF64LEGo(dst, src)
}
