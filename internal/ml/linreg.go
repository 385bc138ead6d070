package ml

import (
	"fmt"
	"math"
)

// LinearModel is an ordinary-least-squares linear regressor with
// intercept, y = Intercept + Coef·x. The paper uses linear regression to
// fit the accelerator model's (t₀, a) parameters (§5.1.1).
type LinearModel struct {
	Coef      []float64
	Intercept float64
}

// FitLinear fits y ≈ b0 + b·x by solving the (optionally ridge-damped)
// normal equations with Gaussian elimination. ridge stabilizes
// near-collinear designs; 0 is plain OLS.
func FitLinear(X [][]float64, y []float64, ridge float64) (*LinearModel, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("ml: FitLinear with %d rows, %d targets", n, len(y))
	}
	d := len(X[0])
	// Augmented design: leading 1 for the intercept.
	k := d + 1
	// A = XᵀX (+ ridge·I on non-intercept terms), b = Xᵀy.
	A := make([][]float64, k)
	for i := range A {
		A[i] = make([]float64, k)
	}
	b := make([]float64, k)
	row := make([]float64, k)
	for s := 0; s < n; s++ {
		if len(X[s]) != d {
			return nil, fmt.Errorf("ml: FitLinear row %d has %d features, want %d", s, len(X[s]), d)
		}
		row[0] = 1
		copy(row[1:], X[s])
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				A[i][j] += row[i] * row[j]
			}
			b[i] += row[i] * y[s]
		}
	}
	for i := 1; i < k; i++ {
		A[i][i] += ridge
	}
	sol, err := solveGaussian(A, b)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Intercept: sol[0], Coef: sol[1:]}, nil
}

// solveGaussian solves A·x = b with partial pivoting, destroying A and b.
func solveGaussian(A [][]float64, b []float64) ([]float64, error) {
	k := len(A)
	for col := 0; col < k; col++ {
		// Pivot.
		best := col
		for r := col + 1; r < k; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[best][col]) {
				best = r
			}
		}
		if math.Abs(A[best][col]) < 1e-12 {
			return nil, fmt.Errorf("ml: singular design matrix at column %d", col)
		}
		A[col], A[best] = A[best], A[col]
		b[col], b[best] = b[best], b[col]
		// Eliminate.
		for r := col + 1; r < k; r++ {
			f := A[r][col] / A[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back-substitute.
	x := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < k; j++ {
			sum -= A[i][j] * x[j]
		}
		x[i] = sum / A[i][i]
	}
	return x, nil
}
