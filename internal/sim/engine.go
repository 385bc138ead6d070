package sim

import "container/heap"

// Event is a scheduled action in the simulation. The action runs when the
// engine clock reaches Time.
type Event struct {
	Time   float64
	Action func()

	index int // heap bookkeeping
	seq   uint64
}

// eventQueue implements heap.Interface ordered by (Time, insertion order)
// so simultaneous events fire in FIFO order, which keeps runs deterministic.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now    float64
	queue  eventQueue
	nextID uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules action to run at absolute simulated time t. Scheduling in
// the past (t < Now) fires the event at the current time instead, which
// keeps the clock monotonic.
func (e *Engine) At(t float64, action func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{Time: t, Action: action, seq: e.nextID}
	e.nextID++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules action to run delay seconds from now.
func (e *Engine) After(delay float64, action func()) *Event {
	return e.At(e.now+delay, action)
}

// Step fires the earliest pending event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.Time
	ev.Action()
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
