package cnum

import (
	"reflect"
	"testing"
)

// TestTableSlotLayout pins the weight-table slot at 16 bytes of plain
// numbers: the stored representative only, nothing the Go collector
// has to trace.
func TestTableSlotLayout(t *testing.T) {
	typ := reflect.TypeOf(tableSlot{})
	if s := typ.Size(); s != 16 {
		t.Errorf("tableSlot is %d B, want 16", s)
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint32, reflect.Uint64, reflect.Float64, reflect.Complex128:
		default:
			t.Errorf("tableSlot field %s has kind %v, not a plain number", f.Name, f.Type.Kind())
		}
	}
}
