package ogr

import (
	"errors"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// These tests pin down the registration-lifetime contract that the lifetime
// analyzer enforces statically: Release is idempotent on a Result, a failed
// RegisterBuffers leaves nothing pinned, and a raw double Deregister is an
// error rather than silent corruption.

func TestDoubleReleaseIsIdempotent(t *testing.T) {
	eng, h := newHCA(t)
	bufs := rowBuffers(h.Space(), 16, 4096, 8192)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := Release(p, Direct{h}, res); err != nil {
			t.Fatalf("first Release: %v", err)
		}
		deregs := h.Counters.Deregistrations
		// The first Release nils res.MRs, so a second Release has nothing
		// to unpin: it must succeed and must not touch the HCA.
		if err := Release(p, Direct{h}, res); err != nil {
			t.Fatalf("second Release: %v", err)
		}
		if h.Counters.Deregistrations != deregs {
			t.Errorf("second Release performed %d extra deregistrations, want 0",
				h.Counters.Deregistrations-deregs)
		}
	})
	run(t, eng)
	if h.NumMRs() != 0 {
		t.Errorf("NumMRs = %d after double release, want 0", h.NumMRs())
	}
	if h.PinnedBytes() != 0 {
		t.Errorf("PinnedBytes = %d after double release, want 0", h.PinnedBytes())
	}
}

func TestFailedRegistrationReleasesPartialWork(t *testing.T) {
	eng, h := newHCA(t)
	s := h.Space()
	// First array registers fine; the second group holds a buffer inside
	// an unallocated hole, so RegisterBuffers fails after partial success
	// and must unwind the registrations it already made.
	a1 := rowBuffers(s, 4, 4096, 4096)
	s.Malloc(100 * mem.PageSize) // allocated spacer forces a second group
	base := s.Malloc(mem.PageSize)
	s.Reserve(4)
	bufs := append(append([]mem.Extent{}, a1...),
		mem.Extent{Addr: base, Len: mem.PageSize},
		mem.Extent{Addr: base + mem.PageSize + 64, Len: 64}, // inside the hole
	)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err == nil {
			t.Fatal("expected RegisterBuffers to fail on the hole buffer")
		}
		if !errors.Is(err, ErrBufferUnallocated) {
			t.Errorf("err = %v, want ErrBufferUnallocated", err)
		}
		if res != nil {
			t.Errorf("res = %+v on failure, want nil", res)
		}
		if h.Counters.Registrations == 0 {
			t.Error("expected partial registrations before the failure")
		}
	})
	run(t, eng)
	if h.NumMRs() != 0 {
		t.Errorf("NumMRs = %d after failed registration, want 0 (cleanup)", h.NumMRs())
	}
	if h.PinnedBytes() != 0 {
		t.Errorf("PinnedBytes = %d after failed registration, want 0", h.PinnedBytes())
	}
}

func TestDirectDoubleDeregisterIsInvalid(t *testing.T) {
	eng, h := newHCA(t)
	base := h.Space().Malloc(mem.PageSize)
	eng.Go("t", func(p *sim.Proc) {
		mr, err := h.Register(p, mem.Extent{Addr: base, Len: mem.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Deregister(p, mr); err != nil {
			t.Fatalf("first Deregister: %v", err)
		}
		if err := h.Deregister(p, mr); !errors.Is(err, ib.ErrInvalidMR) {
			t.Errorf("second Deregister err = %v, want ErrInvalidMR", err)
		}
	})
	run(t, eng)
	if h.NumMRs() != 0 {
		t.Errorf("NumMRs = %d, want 0", h.NumMRs())
	}
}

func TestReleaseReportsUnderlyingDeregisterFailure(t *testing.T) {
	eng, h := newHCA(t)
	bufs := rowBuffers(h.Space(), 4, 4096, 8192)
	eng.Go("t", func(p *sim.Proc) {
		res, err := RegisterBuffers(p, Direct{h}, h.Space(), bufs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Pull an MR out from under the Result: Release must surface the
		// invalid-MR error instead of swallowing it.
		if err := h.Deregister(p, res.MRs[0]); err != nil {
			t.Fatal(err)
		}
		if err := Release(p, Direct{h}, res); !errors.Is(err, ib.ErrInvalidMR) {
			t.Errorf("Release err = %v, want ErrInvalidMR", err)
		}
	})
	run(t, eng)
	if h.NumMRs() != 0 {
		t.Errorf("NumMRs = %d, want 0", h.NumMRs())
	}
}
