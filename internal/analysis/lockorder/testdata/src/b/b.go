// Package b exercises lockorder's blocking-under-hold check.
package b

import "pvfsib/internal/sim"

// blockWhileHolding parks on a mailbox while ioMu is held: the wake-up
// (a Send from another process) may itself need ioMu.
func blockWhileHolding(p *sim.Proc, ioMu *sim.Resource, mb *sim.Mailbox) {
	ioMu.Acquire(p)
	mb.Recv(p) // want `blocking Mailbox\.Recv while holding sim\.Resource ioMu`
	ioMu.Release()
}

// reacquire self-deadlocks on a capacity-1 resource.
func reacquire(p *sim.Proc, mu *sim.Resource) {
	mu.Acquire(p)
	mu.Acquire(p) // want `mu is acquired while already held`
	mu.Release()
}

// deferredRelease keeps the resource held for the whole body, so the Wait
// still parks other users of mu.
func deferredRelease(p *sim.Proc, mu *sim.Resource, wg *sim.WaitGroup) {
	mu.Acquire(p)
	defer mu.Release()
	wg.Wait(p) // want `blocking WaitGroup\.Wait while holding sim\.Resource mu`
}

// useWhileHolding blocks on a second resource while the first is held.
func useWhileHolding(p *sim.Proc, mu, cpu *sim.Resource) {
	mu.Acquire(p)
	cpu.Use(p, 10) // want `blocking Resource\.Use while holding sim\.Resource mu`
	mu.Release()
}

// releaseFirst is the clean shape: drop the lock before parking.
func releaseFirst(p *sim.Proc, ioMu *sim.Resource, mb *sim.Mailbox) {
	ioMu.Acquire(p)
	ioMu.Release()
	mb.Recv(p)
}

// useAlone blocks with nothing held — fine.
func useAlone(p *sim.Proc, cpu *sim.Resource) {
	cpu.Use(p, 10)
}

// spawned function literals are separate processes: the inner Recv does not
// run under the outer Acquire.
func spawn(p *sim.Proc, mu *sim.Resource, mb *sim.Mailbox, start func(func(p *sim.Proc))) {
	mu.Acquire(p)
	start(func(p2 *sim.Proc) {
		mb.Recv(p2)
	})
	mu.Release()
}

// declared documents its lock order, so the nested wait is accepted.
func declared(p *sim.Proc, mu *sim.Resource, cond *sim.Cond) {
	mu.Acquire(p)
	//pvfslint:ok lockorder lock order mu < cond; signaller never takes mu
	cond.Wait(p)
	mu.Release()
}
