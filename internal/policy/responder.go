package policy

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/path"
	"repro/internal/sim"
)

// Ladder is the one policy engine every detection policy runs on: it
// owns the policy's ledger owner, arms its periodic scan, and walks the
// graduated response — demote a path's allocation first, pathKill it
// when demotion is not enough. The watchdog (hung paths), the session
// reaper (trickling sessions) and the adaptive detector
// (learned-baseline anomalies) are just detection signals on top: what
// differs between them is *when* they escalate, never *how*. The
// penalty box rides the kill rung for free: pathKill reports the dead
// connection's source through tcp.Module.OnOffender. Policies embed a
// Ladder so their escalation counters stay per-policy.
type Ladder struct {
	k     *kernel.Kernel
	mgr   *path.Manager
	owner *core.Owner // the policy's own ledger row: scan cost lands here

	// Demotions and Kills count escalations; ReclaimedCycles totals the
	// pathKill teardown cost.
	Demotions       uint64
	Kills           uint64
	ReclaimedCycles sim.Cycles
}

// newLadder returns a response ladder over the manager's paths, with
// a ledger owner of the given name for the policy's own cost (a
// distinct row, like the TCP master event's).
func newLadder(k *kernel.Kernel, mgr *path.Manager, owner string) *Ladder {
	return &Ladder{k: k, mgr: mgr, owner: k.NewOwner(owner, core.DomainOwner)}
}

// every arms scan as a periodic kernel event on the ladder's owner,
// named after it. Each firing charges one EventOp, then scans at the
// current time.
func (l *Ladder) every(interval sim.Cycles, scan func(ctx *kernel.Ctx, now sim.Cycles)) {
	l.k.RegisterEvent(l.owner, l.owner.Name, interval, interval, func(ctx *kernel.Ctx) {
		ctx.Use(l.k.Model().EventOp)
		scan(ctx, ctx.Now())
	})
}

// Demote puts the path on a minimal allocation. The event string names
// the policy rung for the trace ("watchdogDemote", ...).
func (l *Ladder) Demote(p *path.Path, event string) {
	DemotePriority(p.PathRef())
	l.Demotions++
	if tr := l.k.Tracer(); tr != nil {
		tr.Policy(event, p.PathName(), "", l.k.Engine().Now())
	}
}

// Kill is pathKill: reclaim everything the path owns and return the
// teardown cost.
func (l *Ladder) Kill(p *path.Path, event string) sim.Cycles {
	name := p.PathName()
	l.Kills++
	c := l.mgr.Kill(p)
	l.ReclaimedCycles += c
	if tr := l.k.Tracer(); tr != nil {
		tr.Policy(event, name, "", l.k.Engine().Now())
	}
	return c
}
