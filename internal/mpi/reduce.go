package mpi

import "fmt"

// Op is a reduction operator for AllreduceFloat64 and AllreduceScalar,
// applied elementwise.
type Op struct {
	name string
	// f combines b into a elementwise; a is owned by the reduction, b must
	// not be modified.
	f func(a, b []float64)
}

func (o Op) String() string { return o.name }

// Built-in reduction operators, mirroring MPI_SUM, MPI_MAX and MPI_MIN.
var (
	Sum = Op{"sum", func(a, b []float64) {
		for i := range a {
			a[i] += b[i]
		}
	}}
	Max = Op{"max", func(a, b []float64) {
		for i := range a {
			if b[i] > a[i] {
				a[i] = b[i]
			}
		}
	}}
	Min = Op{"min", func(a, b []float64) {
		for i := range a {
			if b[i] < a[i] {
				a[i] = b[i]
			}
		}
	}}
)

// combine folds b into the owned accumulator a and returns it.
func (o Op) combine(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: reduce %d vs %d elements", ErrCountMatch, len(a), len(b))
	}
	o.f(a, b)
	return a, nil
}
