package main

import (
	"syscall"
	"time"
)

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK, linux/prctl.h

// preciseSleep blocks the thread in nanosleep for ns; a Go timer would
// round a sub-millisecond sleep up to the next millisecond. It first drops
// the thread's timer slack from the 50 us default to 1 ns, so the sleep
// ends within microseconds of the deadline (the goroutine may run on a
// different thread each time).
func preciseSleep(ns int64) {
	if ns > int64(time.Millisecond) {
		time.Sleep(time.Duration(ns) - time.Millisecond/2)
		return
	}
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only coarsens the sleep
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the caller re-reads the clock
}
