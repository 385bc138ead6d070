package ml

import "math"

// MAPE is the mean absolute percentage error of predictions against
// ground truth, in percent — the paper's headline accuracy metric.
// Samples with zero truth are skipped.
func MAPE(pred, truth []float64) float64 {
	var sum float64
	var n int
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// APEs returns the absolute percentage error of every sample, in percent,
// for distribution plots (box-and-whisker figures).
func APEs(pred, truth []float64) []float64 {
	out := make([]float64, 0, len(truth))
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		out = append(out, 100*math.Abs(pred[i]-truth[i])/math.Abs(truth[i]))
	}
	return out
}

// AccWithin is the fraction (in percent) of predictions within ±tol
// relative error of the truth — the paper's ±5% Acc. and ±10% Acc.
func AccWithin(pred, truth []float64, tol float64) float64 {
	var hit, n int
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		n++
		if math.Abs(pred[i]-truth[i])/math.Abs(truth[i]) <= tol {
			hit++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * float64(hit) / float64(n)
}

// Quantile returns the q-quantile (0..1) of values using linear
// interpolation on a sorted copy.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	insertionSort(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median is the 0.5 quantile.
func Median(values []float64) float64 { return Quantile(values, 0.5) }

func insertionSort(a []float64) {
	// Shell-style gap sort: fine for metric-sized slices, no sort import
	// needed for float-specific comparators.
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}
