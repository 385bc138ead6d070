package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until due. The open-loop generator paces sends a
// millisecond or two apart; the runtime's own timers wake an idle
// process with millisecond granularity, which would put more slack into
// every latency (timed from the due time) than the request itself
// takes. nanosleep wakes within the kernel's timer slack instead.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}
