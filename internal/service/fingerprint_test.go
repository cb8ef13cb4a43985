package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oblivjoin/internal/query"
	"oblivjoin/internal/table"
)

// TestFingerprintCoversEveryOption walks query.Options by reflection
// and asserts that changing any single field changes the plan-cache
// fingerprint. Instrumentation knobs and ignored fields are the
// deliberate exceptions — they shape reports, or nothing, not plans or
// execution semantics — and must be added here explicitly. Everything
// else participating is what keeps a new execution-shaping option
// (store modes, planners) from silently reusing a plan cached
// under a different configuration.
func TestFingerprintCoversEveryOption(t *testing.T) {
	excluded := map[string]bool{
		"CollectStats": true,
		"TraceHash":    true,
		// Ignored: execution is sequential and unsharded, and nothing
		// reads these two fields; they exist only because benchmarks/
		// names them.
		"Workers": true,
		"Shards":  true,
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

// TestIgnoredOptionsAreInert: the Workers and Shards tombstones change
// nothing. A join chain under {Workers: 4, Shards: 4} returns the rows,
// comparator and route-op counts, canonical trace hash and peak bytes
// of the default options, and caches under the same fingerprint.
func TestIgnoredOptionsAreInert(t *testing.T) {
	const sql = "SELECT key, left.data, right.data FROM l JOIN r USING (key) JOIN s USING (key) WHERE key >= 1 ORDER BY key"
	run := func(o query.Options) (*query.Result, *query.PlanStats) {
		o.TraceHash = true
		e := query.NewEngineWith(o)
		for _, name := range []string{"l", "r", "s"} {
			rows := make([]table.Row, 200)
			for i := range rows {
				rows[i] = table.Row{J: uint64(i), D: table.MustData(fmt.Sprintf("%s%d", name, i))}
			}
			if err := e.Register(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res, e.LastStats()
	}
	ignored := query.Options{Workers: 4, Shards: 4}
	wantRes, want := run(query.Options{})
	gotRes, got := run(ignored)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("rows differ under the ignored options")
	}
	if got.Comparators != want.Comparators || got.RouteOps != want.RouteOps ||
		got.TraceHash != want.TraceHash || got.PeakBytes != want.PeakBytes {
		t.Fatalf("ignored options changed the run:\n got %+v\nwant %+v", got, want)
	}
	if fingerprint(ignored) != fingerprint(query.Options{}) {
		t.Fatal("ignored options change the plan-cache fingerprint")
	}
}
