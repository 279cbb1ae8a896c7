//go:build !linux

package main

import "time"

// waiter falls back to time.Sleep where timerfd is unavailable; the
// generator's lag metric then shows the timer's granularity.
type waiter struct{}

func newWaiter() (*waiter, error) { return &waiter{}, nil }

func (w *waiter) SleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (w *waiter) Close() error { return nil }
