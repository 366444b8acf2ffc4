package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dd"
	"repro/internal/obs"
)

// TestCounterTableCoverage checks that dd.Counters declares every engine
// counter exactly once — each numeric dd.Stats field, the per-cache
// CacheStats fields included, is read by exactly one row — and that
// every step row reaches the event stream and the metrics CSV under its
// own name.
func TestCounterTableCoverage(t *testing.T) {
	var leaves []string
	var walk func(typ reflect.Type, path string, index []int)
	walk = func(typ reflect.Type, path string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(f.Type, path+f.Name+".", idx)
			case reflect.Uint64, reflect.Int64, reflect.Int:
				leaves = append(leaves, path+f.Name)
				var s dd.Stats
				v := reflect.ValueOf(&s).Elem().FieldByIndex(idx)
				if v.CanUint() {
					v.SetUint(7)
				} else {
					v.SetInt(7)
				}
				var hit []string
				for _, c := range dd.Counters {
					if c.Value(&s) != 0 {
						hit = append(hit, c.Name)
					}
				}
				if len(hit) != 1 {
					t.Errorf("Stats.%s%s is read by %d rows %v, want 1", path, f.Name, len(hit), hit)
				}
			default:
				t.Errorf("Stats.%s%s has unexpected kind %s", path, f.Name, f.Type.Kind())
			}
		}
	}
	walk(reflect.TypeOf(dd.Stats{}), "", nil)
	if len(leaves) != len(dd.Counters) {
		t.Errorf("%d numeric Stats fields, %d table rows", len(leaves), len(dd.Counters))
	}

	seen := map[string]bool{}
	for _, c := range dd.Counters {
		if seen[c.Name] {
			t.Errorf("duplicate row %s", c.Name)
		}
		seen[c.Name] = true
	}

	columns := strings.Split(strings.TrimSpace(metricsCSVHeader), ",")
	ec := reflect.TypeOf(obs.EngineCounters{})
	for i, c := range dd.StepCounters {
		if tag, _, _ := strings.Cut(ec.Field(i).Tag.Get("json"), ","); tag != c.Name || ec.Field(i).Type.Kind() != reflect.Uint64 {
			t.Errorf("obs.EngineCounters field %d is %s %q, want uint64 %q", i, ec.Field(i).Type, tag, c.Name)
		}
		found := false
		for _, col := range columns {
			found = found || col == c.Name
		}
		if !found {
			t.Errorf("step row %s is not a metrics CSV column", c.Name)
		}
	}
}
