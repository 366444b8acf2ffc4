package dd

import (
	"reflect"
	"testing"
	"unsafe"
)

// holdsPointer reports whether a value of type t contains anything the
// Go collector has to trace.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestUniqueTableLayout pins the memory layout the unique-table probe
// depends on: 8-byte slots the collector never scans, and 64-byte
// vector nodes (one cache line) that carry their arena index.
func TestUniqueTableLayout(t *testing.T) {
	if s := unsafe.Sizeof(slot{}); s != 8 {
		t.Errorf("unique-table slot is %d B, want 8", s)
	}
	if holdsPointer(reflect.TypeOf(slot{})) {
		t.Error("unique-table slot holds a pointer")
	}
	if s := unsafe.Sizeof(VNode{}); s != 64 {
		t.Errorf("VNode is %d B, want 64", s)
	}
	if !holdsPointer(reflect.TypeOf(VNode{})) {
		t.Error("holdsPointer misses the child pointers of VNode")
	}
}
