package kernel

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// bodies counts the kernel's thread bodies: those bound to live
// threads plus those idle in the pool.
func bodies(k *Kernel) int {
	n := len(k.threads)
	for co := k.idle; co != nil; co = co.nextIdle {
		n++
	}
	return n
}

// settleGoroutines waits briefly for the goroutine count to reach want
// and returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n != want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestStopLeavesNoGoroutines: Stop unwinds every live thread and stops
// every body, whatever state the thread was left in.
func TestStopLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(k *Kernel, o *core.Owner) // leaves one thread in the named state
		check func(k *Kernel) bool
	}{
		{"blocked", func(k *Kernel, o *core.Owner) {
			sem := k.NewSemaphore(o, "s", 0)
			k.Spawn(o, "w", func(ctx *Ctx) { _ = sem.P(ctx) }, SpawnOpts{})
			k.RunFor(100_000)
		}, func(k *Kernel) bool { return k.threads[0].state == threadBlocked }},
		{"runnable", func(k *Kernel, o *core.Owner) {
			k.Spawn(o, "w", func(ctx *Ctx) {
				for {
					ctx.Yield()
				}
			}, SpawnOpts{})
			k.RunFor(100_000)
		}, func(k *Kernel) bool { return k.threads[0].state == threadRunnable }},
		{"paused", func(k *Kernel, o *core.Owner) {
			k.Spawn(o, "w", func(ctx *Ctx) {
				for {
					ctx.Use(1000)
				}
			}, SpawnOpts{})
			k.RunFor(100_000)
		}, func(k *Kernel) bool { return k.paused == k.threads[0] }},
		{"never started", func(k *Kernel, o *core.Owner) {
			k.Spawn(o, "w", func(ctx *Ctx) { t.Error("killed thread ran") }, SpawnOpts{})
		}, func(k *Kernel) bool { return k.threads[0].state == threadRunnable }},
		{"idle in pool", func(k *Kernel, o *core.Owner) {
			k.Spawn(o, "w", func(ctx *Ctx) {}, SpawnOpts{})
			k.RunFor(100_000)
		}, func(k *Kernel) bool { return k.LiveThreads() == 0 && k.idle != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := New(sim.New(), cost.Default(), Config{})
			tc.setup(k, k.NewOwner("p", core.PathOwner))
			if !tc.check(k) {
				t.Fatal("setup did not leave the thread in the named state")
			}
			if n := runtime.NumGoroutine(); n <= base {
				t.Fatalf("goroutines = %d with a body alive, baseline %d: the check cannot fail", n, base)
			}
			k.Stop()
			if n := settleGoroutines(base); n != base {
				t.Fatalf("goroutines = %d after Stop, baseline %d", n, base)
			}
		})
	}
}

// TestBodyReusedAfterKillMidCrossStartsClean: a body recycled from a
// thread killed inside a crossing carries none of that thread's state.
func TestBodyReusedAfterKillMidCrossStartsClean(t *testing.T) {
	k := newKernel(t, Config{Accounting: true})
	d1 := k.Domains().Create("a")
	d2 := k.Domains().Create("b")
	victimOwner := k.NewOwner("victim", core.PathOwner)
	sem := k.NewSemaphore(victimOwner, "s", 0)
	victim := k.Spawn(victimOwner, "victim", func(ctx *Ctx) {
		ctx.Cross(d1.ID(), func() { _ = sem.P(ctx) })
	}, SpawnOpts{})
	co := victim.co
	k.RunFor(100_000)
	if victim.CurrentDomain() != d1.ID() || victim.CrossDepth() != 1 {
		t.Fatalf("victim in domain %d at depth %d, want blocked inside the crossing",
			victim.CurrentDomain(), victim.CrossDepth())
	}
	k.KillThread(victim)
	k.RunFor(100_000)
	if k.LiveThreads() != 0 {
		t.Fatal("killed thread did not exit")
	}

	owner := k.NewOwner("next", core.PathOwner)
	ran := false
	next := k.Spawn(owner, "next", func(ctx *Ctx) {
		ran = true
		th := ctx.Thread()
		if th.Killed() {
			t.Error("reused body starts killed")
		}
		if th.CurrentDomain() != d2.ID() {
			t.Errorf("reused body starts in domain %d, want StartDomain %d", th.CurrentDomain(), d2.ID())
		}
		if th.CrossDepth() != 0 {
			t.Errorf("reused body starts at crossing depth %d", th.CrossDepth())
		}
		if owner.Counters.Stacks != 1 {
			t.Errorf("reused body charged %d stacks, want 1", owner.Counters.Stacks)
		}
	}, SpawnOpts{StartDomain: d2.ID()})
	if next.co != co {
		t.Fatal("spawn after exit did not reuse the idle body")
	}
	k.RunFor(100_000)
	if !ran {
		t.Fatal("thread on reused body did not run")
	}
}

// TestSpawnExitCyclesReuseBodies: thread churn creates no more bodies
// than the peak number of live threads.
func TestSpawnExitCyclesReuseBodies(t *testing.T) {
	k := newKernel(t, Config{})
	owner := k.NewOwner("p", core.PathOwner)
	const peak = 3
	spawned, runs := 0, 0
	for i := 0; i < 1000; i++ {
		for j := 0; j <= i%peak; j++ {
			k.Spawn(owner, "w", func(ctx *Ctx) { runs++ }, SpawnOpts{})
			spawned++
		}
		k.RunFor(100_000)
		if k.LiveThreads() != 0 {
			t.Fatalf("cycle %d: %d threads still live", i, k.LiveThreads())
		}
	}
	if runs != spawned {
		t.Fatalf("threads ran %d times, want %d", runs, spawned)
	}
	if n := bodies(k); n > peak {
		t.Fatalf("%d bodies after 1000 cycles, want at most the peak of %d live threads", n, peak)
	}
}

// TestModulePanicReachesRunCaller: a panic in a thread body that is not
// the kernel's own kill or exit unwind surfaces from Kernel.Run.
func TestModulePanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(sim.New(), cost.Default(), Config{})
	owner := k.NewOwner("p", core.PathOwner)
	k.Spawn(owner, "bad", func(ctx *Ctx) {
		ctx.Use(1000)
		panic("module bug")
	}, SpawnOpts{})
	func() {
		defer func() {
			if r := recover(); r != "module bug" {
				t.Errorf("Run recovered %v, want the module's panic", r)
			}
		}()
		k.RunFor(1_000_000)
		t.Error("Run returned normally")
	}()
	k.Stop()
	if n := settleGoroutines(base); n != base {
		t.Fatalf("goroutines = %d after Stop, baseline %d", n, base)
	}
}
