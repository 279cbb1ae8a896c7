package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps until absolute deadlines with sub-millisecond precision.
//
// An open-loop generator cannot use time.Sleep for its sends on Linux: when
// every goroutine is parked, the Go runtime blocks in epoll with a timeout
// rounded up to whole milliseconds, so a 300µs sleep measured ~1ms on a
// 2-core box and every request looked ~0.8ms slower than it was. A timerfd
// registered with the runtime poller wakes the sender when the kernel timer
// fires (~15µs late at the median on the same box).
type waiter struct {
	fd uintptr
	f  *os.File
}

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

const clockMonotonic = 1

func newWaiter() (*waiter, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// runtime poller, so Read parks the goroutine instead of a thread.
	return &waiter{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// SleepUntil returns once t has passed.
func (w *waiter) SleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	_, err := w.f.Read(buf[:])
	return err
}

func (w *waiter) Close() error { return w.f.Close() }
