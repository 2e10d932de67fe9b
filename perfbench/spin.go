package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: the thread runs only when its
// CPU has nothing else to run and is preempted as soon as anything wakes.
const schedIdle = 5

// serveSpin keeps every CPU busy at SCHED_IDLE priority until killed.
// On a VM whose idle vCPUs halt, waking a halted vCPU costs a hypervisor
// reschedule of up to several ms, which would otherwise land in every
// measured latency; a CPU running an idle-priority spinner instead
// switches to a woken server or generator thread at once. The spinners'
// CPU time is charged to this process, never to the server.
func serveSpin(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("serve-spin takes no arguments")
	}
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				errs <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
				return
			}
			for {
			}
		}()
	}
	return <-errs
}
