package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"ecocapsule/internal/analysis"
)

func TestWriteSARIFShape(t *testing.T) {
	analyzers := analysis.All()
	diags := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/phy/frontend.go", Line: 42, Column: 7},
			Analyzer: "hotalloc",
			Message:  "call to helper in hotpath function Decode allocates because it reaches a make call",
		},
		{
			Pos:      token.Position{Filename: "internal/units/units.go", Line: 9, Column: 1},
			Analyzer: "dimcheck",
			Message:  "unit mismatch: carrier (hz) + window (s)",
		},
	}
	var b strings.Builder
	if err := writeSARIF(&b, analyzers, diags); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}

	var log sarifLog
	if err := json.Unmarshal([]byte(b.String()), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ecolint" {
		t.Errorf("driver name = %q, want ecolint", run.Tool.Driver.Name)
	}
	// Every configured analyzer must appear in the rule table, found or not.
	if len(run.Tool.Driver.Rules) != len(analyzers) {
		t.Errorf("rules = %d, want %d (one per analyzer)", len(run.Tool.Driver.Rules), len(analyzers))
	}
	ruleIDs := make(map[string]int)
	for i, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = i
	}
	for _, name := range []string{"dimcheck", "hotalloc", "floatcmp", "guardedby"} {
		if _, ok := ruleIDs[name]; !ok {
			t.Errorf("rule table is missing analyzer %q", name)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for i, res := range run.Results {
		if res.RuleID != diags[i].Analyzer {
			t.Errorf("result %d ruleId = %q, want %q", i, res.RuleID, diags[i].Analyzer)
		}
		if res.RuleIndex != ruleIDs[res.RuleID] {
			t.Errorf("result %d ruleIndex = %d, does not point at its rule (%d)", i, res.RuleIndex, ruleIDs[res.RuleID])
		}
		if res.Level != "warning" {
			t.Errorf("result %d level = %q, want warning", i, res.Level)
		}
		if res.Message.Text != diags[i].Message {
			t.Errorf("result %d message = %q, want %q", i, res.Message.Text, diags[i].Message)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.Region.StartLine != diags[i].Pos.Line {
			t.Errorf("result %d startLine = %d, want %d", i, loc.Region.StartLine, diags[i].Pos.Line)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") {
			t.Errorf("result %d URI %q is not forward-slashed", i, loc.ArtifactLocation.URI)
		}
	}
}

func TestWriteSARIFEmpty(t *testing.T) {
	var b strings.Builder
	if err := writeSARIF(&b, analysis.All(), nil); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(b.String()), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got := log.Runs[0].Results; len(got) != 0 {
		t.Errorf("clean tree produced %d results, want 0", len(got))
	}
	// `"results": []`, not `"results": null` — the SARIF schema requires
	// an array and GitHub rejects null.
	if !strings.Contains(b.String(), `"results": []`) {
		t.Error("empty results rendered as null, want []")
	}
}
