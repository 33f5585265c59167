package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

// counters lists every int64 counter of Snapshot, the embedded protocol
// set's promoted fields included. Sub and Add walk the same fields by
// construction; only the hand-written renderings below can drift.
func counters() []reflect.StructField {
	var out []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Snapshot{})) {
		if f.Type.Kind() == reflect.Int64 {
			out = append(out, f)
		}
	}
	return out
}

// TestSnapshotStringCoversEveryField catches a field that no longer shows
// up anywhere in the human-readable rendering. Setting any single field
// must change String's output relative to the zero snapshot — whether the
// field prints directly or feeds a derived figure (IOReqs, the MB totals,
// a section trigger).
func TestSnapshotStringCoversEveryField(t *testing.T) {
	fields := counters()
	if len(fields) != 36 {
		t.Errorf("Snapshot has %d counters, want 36 (21 protocol + 15 substrate)", len(fields))
	}
	zero := Snapshot{}.String()
	for _, f := range fields {
		var s Snapshot
		// Large enough that byte counts round to a visible 0.1 MB.
		reflect.ValueOf(&s).Elem().FieldByIndex(f.Index).SetInt(1 << 20)
		if s.String() == zero {
			t.Errorf("field %s does not affect String output", f.Name)
		}
	}
}

// TestSnapshotJSONCoversEveryField asserts the machine-readable form
// carries every counter, flattened, under its own name (no json:"-"
// hiding, no nesting under the embedded struct's name).
func TestSnapshotJSONCoversEveryField(t *testing.T) {
	var s Snapshot
	for _, f := range counters() {
		reflect.ValueOf(&s).Elem().FieldByIndex(f.Index).SetInt(5)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var flat map[string]int64
	if err := json.Unmarshal(b, &flat); err != nil {
		t.Fatalf("JSON is not a flat object of counters: %v\n%s", err, b)
	}
	for _, f := range counters() {
		if flat[f.Name] != 5 {
			t.Errorf("field %s missing from JSON output %s", f.Name, b)
		}
	}
}
