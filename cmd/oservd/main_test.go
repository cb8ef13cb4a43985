package main

import (
	"flag"
	"os"
	"slices"
	"testing"

	"oblivjoin/internal/docscheck"
)

// TestFlagsMatchREADME: the flags oservd registers are exactly the ones
// README's flag table and its "oservd-only" line name.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("oservd", flag.ContinueOnError)
	flags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := docscheck.CLIFlags(string(readme), "oservd")
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("registered flags and README disagree:\nregistered %v\nREADME     %v", got, want)
	}
}
