package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Waiting for a due time. Go's timers (time.Sleep, time.After and so
// clock.Clock.After) wake through the network poller, whose timeout has
// millisecond granularity on Linux: on the 2-core VM this was built on
// they overshot a 0.5 ms sleep by 0.6 ms at the median, several times an
// introspection's service time. A blocking nanosleep is precise but
// holds the worker's processor until the runtime's monitor takes it
// back, which starves the system under test. A timerfd is both: the
// kernel fires it with high-resolution timers, and reading it parks the
// goroutine in the network poller without holding a processor. The
// worker sets it a little early and yields for the rest.

const (
	timerSlack = 80 * time.Microsecond  // usual wake-up overshoot, plus margin
	spinBelow  = 100 * time.Microsecond // below this, yield instead of arming the timer
)

// timer is one worker's timerfd.
type timer struct {
	f   *os.File
	rc  syscall.RawConn
	buf [8]byte
}

func newTimer() (*timer, error) {
	const tfdNonblock, tfdCloexec = syscall.O_NONBLOCK, syscall.O_CLOEXEC // the TFD_ flags share these values
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// runtime's poller, so Read parks the goroutine instead of a thread.
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &timer{f: f, rc: rc}, nil
}

func (t *timer) close() { _ = t.f.Close() } // nothing was written

// sleep blocks for about d.
func (t *timer) sleep(d time.Duration) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if cerr := t.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); cerr != nil {
		return cerr
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := t.f.Read(t.buf[:]); err != nil {
		return fmt.Errorf("reading timerfd: %w", err)
	}
	return nil
}

// waitUntil returns at the due time (tracer-relative ns), or at once
// if it has passed.
func (t *timer) waitUntil(tr *tracer, due int64) error {
	for {
		d := time.Duration(due - tr.now())
		switch {
		case d <= 0:
			return nil
		case d > spinBelow:
			if err := t.sleep(d - timerSlack); err != nil {
				return err
			}
		default:
			runtime.Gosched()
		}
	}
}
