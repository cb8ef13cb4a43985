package oblivjoin

import (
	"testing"

	"oblivjoin/internal/table"
)

func TestJoinKeyed(t *testing.T) {
	left, right := buildTables(t)
	pairs, err := JoinKeyed(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("m = %d, want 4", len(pairs))
	}
	for _, p := range pairs {
		if p.Key != 2 {
			t.Fatalf("pair %+v has wrong key", p)
		}
	}
}

func TestJoinKeyedRejectsBaselines(t *testing.T) {
	left, right := buildTables(t)
	if _, err := JoinKeyed(left, right, &Options{Algorithm: AlgorithmSortMerge}); err != ErrKeyedUnsupported {
		t.Fatalf("err = %v", err)
	}
}

func TestToTableRoundTrip(t *testing.T) {
	pairs := []KeyedPair{{Key: 1, Left: "a", Right: "b"}}
	tab, err := ToTable(pairs, "+")
	if err != nil {
		t.Fatal(err)
	}
	got := tab.Rows()
	if len(got) != 1 || got[0].J != 1 || table.DataString(got[0].D) != "a+b" {
		t.Fatalf("got %+v", got)
	}
	long := []KeyedPair{{Key: 1, Left: "aaaaaaaaaa", Right: "bbbbbbbbbb"}}
	if _, err := ToTable(long, "+"); err == nil {
		t.Fatal("expected overflow error")
	}
}
