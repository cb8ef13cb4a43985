package service

import (
	"reflect"
	"strings"
	"testing"

	"oblivjoin/internal/fault"
	"oblivjoin/internal/query"
)

// TestFingerprintCoversEveryOption walks query.Options by reflection
// and asserts that changing any single field changes the plan-cache
// fingerprint. Instrumentation knobs are the deliberate exceptions —
// they shape reports, not plans or execution semantics — and must be
// added here explicitly when introduced. Everything else participating
// is what keeps a new execution-shaping option (worker counts, store
// modes, shard fan-out, budgets) from silently reusing a plan cached
// under a different configuration.
func TestFingerprintCoversEveryOption(t *testing.T) {
	excluded := map[string]bool{
		"CollectStats": true,
		"TraceHash":    true,
		// The spill filesystem seam injects faults; it never shapes the
		// plan, the results or the trace.
		"SpillFS": true,
	}
	base := query.Options{}
	baseFP := fingerprint(base)
	typ := reflect.TypeOf(base)
	// Nothing stale in either direction: every exemption names a field
	// that exists, and the fingerprint has one part per remaining field —
	// a removed option leaves no dead verb behind.
	for name := range excluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exemption %q names no query.Options field", name)
		}
	}
	if got, want := strings.Count(baseFP, "|")+1, typ.NumField()-len(excluded); got != want {
		t.Errorf("fingerprint %q has %d parts for %d execution-shaping options", baseFP, got, want)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v := reflect.ValueOf(&query.Options{}).Elem()
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(7)
		case reflect.String:
			fv.SetString("probe")
		case reflect.Interface:
			// Perturb with a non-nil injector so even excluded seam
			// fields are verified not to leak into the fingerprint.
			probe := reflect.ValueOf(fault.NewInjector(nil, 1))
			if !probe.Type().AssignableTo(fv.Type()) {
				t.Fatalf("query.Options.%s: no probe value assignable to %s", f.Name, fv.Type())
			}
			fv.Set(probe)
		default:
			t.Fatalf("query.Options.%s has kind %s: teach this test to perturb it", f.Name, fv.Kind())
		}
		changed := fingerprint(v.Interface().(query.Options)) != baseFP
		if excluded[f.Name] {
			if changed {
				t.Errorf("query.Options.%s is listed as instrumentation-only but changes the fingerprint", f.Name)
			}
			continue
		}
		if !changed {
			t.Errorf("query.Options.%s does not participate in the plan-cache fingerprint", f.Name)
		}
	}
}
