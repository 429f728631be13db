package linalg

// This file builds the model problems used throughout the reproduction's
// examples, tests, and benchmarks: the 2-D Poisson and advection-diffusion
// operators that stand in for CHAD's semi-implicit pressure systems (§2.2 of
// the paper: "solution of discretized linear systems ... very large ...
// sparse coefficient matrices").

// Poisson2D builds the standard 5-point finite-difference Laplacian on an
// nx×ny grid with homogeneous Dirichlet boundaries: a symmetric positive-
// definite system of size nx·ny. Row ordering is row-major in (iy, ix).
func Poisson2D(nx, ny int) *CSR {
	n := nx * ny
	entries := make([]Triplet, 0, 5*n)
	id := func(ix, iy int) int { return iy*nx + ix }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			r := id(ix, iy)
			entries = append(entries, Triplet{r, r, 4})
			if ix > 0 {
				entries = append(entries, Triplet{r, id(ix-1, iy), -1})
			}
			if ix < nx-1 {
				entries = append(entries, Triplet{r, id(ix+1, iy), -1})
			}
			if iy > 0 {
				entries = append(entries, Triplet{r, id(ix, iy-1), -1})
			}
			if iy < ny-1 {
				entries = append(entries, Triplet{r, id(ix, iy+1), -1})
			}
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		panic("linalg: Poisson2D assembly: " + err.Error()) // unreachable: indices are in range by construction
	}
	return m
}

// AdvDiff2D builds a 2-D advection-diffusion operator with upwind
// differencing of a constant velocity field (vx, vy) and unit diffusion on
// an nx×ny grid (Dirichlet boundaries). The result is nonsymmetric for
// nonzero velocity — the workload for GMRES/BiCGStab in experiment E8.
func AdvDiff2D(nx, ny int, vx, vy float64) *CSR {
	n := nx * ny
	h := 1.0 / float64(nx+1)
	entries := make([]Triplet, 0, 5*n)
	id := func(ix, iy int) int { return iy*nx + ix }
	// Upwind advection coefficients.
	axm, axp := upwind(vx)
	aym, ayp := upwind(vy)
	diag := 4 + (axm+axp)*h + (aym+ayp)*h // diffusion + advection mass
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			r := id(ix, iy)
			entries = append(entries, Triplet{r, r, diag})
			if ix > 0 {
				entries = append(entries, Triplet{r, id(ix-1, iy), -1 - axm*h})
			}
			if ix < nx-1 {
				entries = append(entries, Triplet{r, id(ix+1, iy), -1 - axp*h})
			}
			if iy > 0 {
				entries = append(entries, Triplet{r, id(ix, iy-1), -1 - aym*h})
			}
			if iy < ny-1 {
				entries = append(entries, Triplet{r, id(ix, iy+1), -1 - ayp*h})
			}
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		panic("linalg: AdvDiff2D assembly: " + err.Error())
	}
	return m
}

// upwind splits velocity v into (upstream, downstream) coefficient weights.
func upwind(v float64) (minus, plus float64) {
	if v >= 0 {
		return v, 0
	}
	return 0, -v
}

// Laplace1D builds the tridiagonal 1-D Laplacian of size n (SPD).
func Laplace1D(n int) *CSR {
	entries := make([]Triplet, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries, Triplet{i, i, 2})
		if i > 0 {
			entries = append(entries, Triplet{i, i - 1, -1})
		}
		if i < n-1 {
			entries = append(entries, Triplet{i, i + 1, -1})
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		panic("linalg: Laplace1D assembly: " + err.Error())
	}
	return m
}

// Ones returns a length-n vector of ones — the conventional manufactured
// solution for solver tests (b = A·1).
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
