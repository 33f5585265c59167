package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestSub(t *testing.T) {
	a := Snapshot{Acct: Acct{ReadReqs: 10, WriteReqs: 20, BytesClientServer: 1 << 20}, FSReadCalls: 100}
	b := Snapshot{Acct: Acct{ReadReqs: 4, WriteReqs: 5, BytesClientServer: 1 << 19}, FSReadCalls: 40}
	d := a.Sub(b)
	if d.ReadReqs != 6 || d.WriteReqs != 15 || d.FSReadCalls != 60 || d.BytesClientServer != 1<<19 {
		t.Errorf("Sub = %+v", d)
	}
}

// TestAddFoldsEveryProtocolCounter: the per-entity fold and Sub are the
// same field walk, so Add then Sub round-trips every counter.
func TestAddFoldsEveryProtocolCounter(t *testing.T) {
	var a, one Acct
	rv := reflect.ValueOf(&one).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(int64(i + 1))
	}
	a.Add(one)
	a.Add(one)
	d := Snapshot{Acct: a}.Sub(Snapshot{Acct: one})
	if d.Acct != one {
		t.Errorf("2x - 1x = %+v, want %+v", d.Acct, one)
	}
}

// TestFoldRejectsNonCounterField: a gauge, string or float smuggled into a
// counter struct would silently fall out of every sum and delta; fold
// refuses it instead.
func TestFoldRejectsNonCounterField(t *testing.T) {
	type bad struct {
		Acct
		Peak int32
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Peak") {
			t.Errorf("fold over a non-int64 field: recovered %q, want a failure naming Peak", msg)
		}
	}()
	var a, b bad
	fold(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b), 1)
}

func TestIOReqs(t *testing.T) {
	s := Snapshot{Acct: Acct{ReadReqs: 1, WriteReqs: 2, SyncReqs: 3, OpenReqs: 99}}
	if s.IOReqs() != 6 {
		t.Errorf("IOReqs = %d, want 6 (opens excluded)", s.IOReqs())
	}
}

func TestString(t *testing.T) {
	s := Snapshot{Acct: Acct{WriteReqs: 7, BytesClientServer: 2 << 20}, RegLookups: 3}
	str := s.String()
	for _, want := range []string{"req#=7", "reg#=3", "c/s=2.0MB"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}
