//go:build go1.23

package kernel

import "iter"

// coro is a reusable thread body: an iter.Pull coroutine that runs one
// bound thread's Fn at a time. Only the kernel side calls next
// (Kernel.resume, and Kernel.Stop to unwind), never a body, so exactly
// one body runs at a time, and a thread switch is a direct coroutine
// hand-off rather than a trip through the Go scheduler.
type coro struct {
	next  func() (yieldKind, bool)
	stop  func()
	yield func(yieldKind) bool

	t        *Thread // bound thread; nil while the body is idle
	fn       Fn
	nextIdle *coro // next body on Kernel.idle
}

// newCoro creates an unstarted body. Its first next runs the bound
// thread from the top; a recycled body resumes from its idle yield.
//
//escort:coldpath pool miss: one body per peak live thread, then recycled
func newCoro() *coro {
	co := &coro{}
	co.next, co.stop = iter.Pull(co.body)
	return co
}

// body runs bound threads forever: each pass runs one thread to its end
// and yields how it ended, then waits in that yield for the next
// binding. It returns only when stop is called on an idle body.
func (co *coro) body(yield func(yieldKind) bool) {
	co.yield = yield
	for yield(co.run()) {
	}
}

// run executes the bound thread's Fn and reports how it ended.
func (co *coro) run() (kind yieldKind) {
	t := co.t
	defer recoverSentinel(&kind)
	if t.killed {
		panic(killSentinel)
	}
	co.fn(&t.ctx)
	return yieldExited
}

// recoverSentinel turns the kill and exit sentinels unwinding a thread
// into the yieldKind the kernel retires it with. Any other panic
// propagates out of the body and, through next, out of Kernel.Run on
// the caller's goroutine.
func recoverSentinel(kind *yieldKind) {
	switch r := recover(); r {
	case nil:
	case exitSentinel:
		*kind = yieldExited
	case killSentinel:
		*kind = yieldKilled
	default:
		panic(r)
	}
}
