// Package ml provides the machine-learning substrate the paper gets from
// scikit-learn: ordinary least squares linear regression, CART regression
// trees, gradient-boosting regression (SLOMO's model family), and the
// evaluation metrics the paper reports (MAPE, ±5% and ±10% accuracy).
// Everything is implemented from scratch on the standard library.
package ml

// Dataset is a supervised regression dataset: feature rows X and targets Y.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Add appends one sample. The feature vector is copied.
func (d *Dataset) Add(x []float64, y float64) {
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, y)
}
