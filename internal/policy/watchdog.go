package policy

import (
	"repro/internal/kernel"
	"repro/internal/module"
	"repro/internal/path"
	"repro/internal/sim"
)

// DefaultWatchdogStall is the no-progress threshold after which a path
// with queued work is considered stuck: 25 master-tick-sized quanta.
const DefaultWatchdogStall = 50 * sim.CyclesPerMillisecond

// Watchdog detects hung or starved paths and escalates through the
// shared response Ladder: first demote the path's allocation, then
// pathKill it. Fault injection (and real bugs) can wedge a path with
// its resources pinned; the watchdog is the graceful-degradation
// backstop that turns a silent hang into the same contained
// reclamation a runaway triggers.
type Watchdog struct {
	*Ladder
	stall sim.Cycles

	// seen is keyed by each path's generation-stamped reference, so a
	// path whose storage is recycled starts with no record.
	seen map[module.PathRef]watchState
}

// watchState is one path's progress record between scans.
type watchState struct {
	progress uint64     // Delivered+Drops when it last changed
	since    sim.Cycles // when it last changed
	demoted  bool
}

// EnableWatchdog arms the watchdog (see ROBUSTNESS.md). A path holding
// queued work that delivers nothing for stall cycles is demoted; one
// that stays stuck for another stall is killed. Zero stall means
// DefaultWatchdogStall. The scan runs every stall/4, so escalation
// latency is at most a quarter-threshold past exact.
func EnableWatchdog(k *kernel.Kernel, mgr *path.Manager, stall sim.Cycles) *Watchdog {
	if stall == 0 {
		stall = DefaultWatchdogStall
	}
	w := &Watchdog{Ladder: newLadder(k, mgr, "Path Watchdog"), stall: stall,
		seen: make(map[module.PathRef]watchState)}
	w.every(stall/4, w.scan)
	return w
}

// scan walks the live paths in creation order; iteration state is
// rebuilt each pass so dead paths cannot pin entries.
func (w *Watchdog) scan(ctx *kernel.Ctx, now sim.Cycles) {
	op := w.k.Model().AccountingOp
	next := make(map[module.PathRef]watchState, len(w.seen))
	for _, p := range w.mgr.Paths() {
		ctx.Use(op)
		prog := p.Delivered + p.Drops
		ref := p.PathRef()
		st, ok := w.seen[ref]
		if !ok || st.progress != prog {
			st = watchState{progress: prog, since: now, demoted: st.demoted}
		}
		if stuck := p.PendingWork() > 0 && now-st.since >= w.stall; stuck {
			switch {
			case !st.demoted:
				w.Demote(p, "watchdogDemote")
				st.demoted = true
			case now-st.since >= 2*w.stall:
				w.Kill(p, "watchdogKill")
				continue // killed: no state to carry
			}
		}
		next[ref] = st
	}
	w.seen = next
}
