package main

import (
	"strings"
	"testing"

	"ecocapsule/internal/analysis"
)

// TestListRoster pins the default suite that `ecolint -list` prints and
// that every ecolint run gates on: exactly these analyzers, in this
// order. Dropping one from analysis.All() would silently drop its gate,
// so a roster change must show up here.
func TestListRoster(t *testing.T) {
	want := []string{
		"locksafety",
		"errchecklite",
		"floatcmp",
		"metricname",
		"determinism",
		"guardedby",
		"closurecapture",
		"atomicmix",
		"dimcheck",
		"hotalloc",
	}
	var b strings.Builder
	writeList(&b, analysis.All())
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-list roster:\n got  %v\n want %v", got, want)
	}
}
