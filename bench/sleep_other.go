//go:build !linux

package main

import "time"

// sleepUntil blocks until due.
func sleepUntil(due time.Time) {
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
}
