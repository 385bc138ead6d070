package feedback

// sample is one windowed measurement: the measured/predicted ratio and
// the source that reported it.
type sample struct {
	ratio  float64
	source string
}

// window is a bounded ring of the most recent samples for one key —
// the data signal the drift gate evaluates. Old samples age out by
// displacement, so a transient fault's footprint is bounded by the
// window size no matter how long the key lives.
type window struct {
	buf  []sample
	next int
	full bool
}

func newWindow(n int) *window { return &window{buf: make([]sample, n)} }

func (w *window) push(s sample) {
	w.buf[w.next] = s
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// samples returns the live samples in ring-storage order (the gate is
// order-insensitive). The slice aliases the ring; callers must not
// retain it past the controller's lock.
func (w *window) samples() []sample {
	if w.full {
		return w.buf
	}
	return w.buf[:w.next]
}

// reset empties the window — a promotion or a reload does this,
// because ratios measured against the retired model say nothing about
// the new one.
func (w *window) reset() {
	w.next = 0
	w.full = false
}
