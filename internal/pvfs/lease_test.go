package pvfs

import (
	"fmt"
	"testing"
	"time"

	"pvfsib/internal/fault"
	"pvfsib/internal/sim"
)

// recallCount is a Recaller that counts the recalls it sees.
type recallCount struct{ n int }

func (r *recallCount) Recall(*sim.Proc) { r.n++ }

// TestLeaseTablesDropUnlinkedFiles runs 50 rounds on fresh names: a client
// creates a file, registers a recall hook and takes the write lease; a
// second client registers a hook, takes a read lease, which recalls the
// writer, and releases it; both hooks unregister and the file is unlinked.
// Every other round the unlink comes before the reader's release, so the
// manager keeps the state until that last holder lets go. After every round
// the manager's lease table and both clients' hook tables are back at their
// size after the first — empty — and every recall reached its hook once.
func TestLeaseTablesDropUnlinkedFiles(t *testing.T) {
	c := NewCluster(sim.NewEngine(), DefaultConfig(), 2, 2)
	w, r := c.Clients[0], c.Clients[1]
	sizes := func() [3]int { return [3]int{len(c.Manager.leases), len(w.recalls), len(r.recalls)} }
	var first [3]int
	c.Eng.GoOn(w.node.Group(), "script", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("f%d", i)
			fh := w.Open(p, name)
			var wh, rhook RecallHook
			var wn, rn recallCount
			fh.OnLeaseRecall(&wh, &wn)
			sim.Must(fh.AcquireLease(p, true))
			rh := r.Open(p, name)
			rh.OnLeaseRecall(&rhook, &rn)
			sim.Must(rh.AcquireLease(p, false))
			if wn.n != 1 || rn.n != 0 {
				t.Errorf("round %d: the writer's hook ran %d times, the reader's %d, want 1 and 0", i, wn.n, rn.n)
			}
			wh.Unregister()
			sim.Must(fh.ReleaseLease(p))
			if i%2 == 1 {
				w.Remove(p, name)
				if readers, _ := c.Manager.LeaseHolders(rh.id); len(readers) != 1 {
					t.Errorf("round %d: the unlink dropped the state of a held lease: readers %v", i, readers)
				}
			}
			rhook.Unregister()
			rhook.Unregister() // a second unregister is a no-op
			sim.Must(rh.ReleaseLease(p))
			if i%2 == 0 {
				w.Remove(p, name)
			}
			if i == 0 {
				first = sizes()
			} else if now := sizes(); now != first {
				t.Errorf("round %d: leases, writer hooks, reader hooks %v, %v after the first round", i, now, first)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if first != [3]int{} {
		t.Errorf("tables %v after the first round, want empty", first)
	}
	c.Eng.Shutdown()
}

// TestRecallHooksRunInOrder: a file's hooks run in registration order, a
// hook of another file does not run, and a hook unregistered from the middle
// of the list no longer runs while the others still do.
func TestRecallHooksRunInOrder(t *testing.T) {
	c := NewCluster(sim.NewEngine(), DefaultConfig(), 2, 2)
	w, r := c.Clients[0], c.Clients[1]
	var order []string
	c.Eng.GoOn(w.node.Group(), "script", func(p *sim.Proc) {
		fh, other := w.Open(p, "f"), w.Open(p, "g")
		var hooks [4]RecallHook
		rec := func(s string) Recaller { return recallFunc(func() { order = append(order, s) }) }
		fh.OnLeaseRecall(&hooks[0], rec("a"))
		other.OnLeaseRecall(&hooks[1], rec("other"))
		fh.OnLeaseRecall(&hooks[2], rec("b"))
		fh.OnLeaseRecall(&hooks[3], rec("c"))
		sim.Must(fh.AcquireLease(p, true))
		sim.Must(r.Open(p, "f").AcquireLease(p, true))
		hooks[2].Unregister()
		sim.Must(fh.AcquireLease(p, true))
		sim.Must(r.Open(p, "f").AcquireLease(p, true))
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[a b c a c]"; got != want {
		t.Errorf("hooks ran %s, want %s", got, want)
	}
	c.Eng.Shutdown()
}

type recallFunc func()

func (f recallFunc) Recall(*sim.Proc) { f() }

// TestUnsentRecallGoesBack cuts the link between the manager and a client
// that holds a write lease, and another client asks for the lease: the
// manager's recall cannot be sent until the link heals. Every recall record
// whose send fails goes back to the manager's pool before the resend, so
// once the recall is acked and the lease granted, no record is left out.
func TestUnsentRecallGoesBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &fault.Plan{Seed: 1}
	c := NewCluster(sim.NewEngine(), cfg, 2, 2)
	w, r := c.Clients[0], c.Clients[1]
	var hook RecallHook
	var n recallCount
	c.Eng.GoOn(w.node.Group(), "script", func(p *sim.Proc) {
		fh := w.Open(p, "f")
		fh.OnLeaseRecall(&hook, &n)
		sim.Must(fh.AcquireLease(p, true))
		c.AttachFaults(&fault.Plan{Seed: 1, Cuts: []fault.Cut{
			{A: int(w.node.ID), B: int(c.Manager.node.ID), Dur: 200 * time.Microsecond},
		}})
		rh := r.Open(p, "f")
		sim.Must(rh.AcquireLease(p, true))
		sim.Must(rh.ReleaseLease(p))
		hook.Unregister()
		r.Remove(p, "f")
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.FaultDrops == 0 {
		t.Fatal("the cut failed no recall send")
	}
	if n.n != 1 {
		t.Errorf("the recall ran the hook %d times, want 1", n.n)
	}
	if out := c.census()["pvfs.records"]; out != 0 {
		t.Errorf("pvfs.records: %d taken and not recycled", out)
	}
	if len(c.Manager.leases) != 0 {
		t.Errorf("%d lease states left after the unlink", len(c.Manager.leases))
	}
	c.Eng.Shutdown()
}
