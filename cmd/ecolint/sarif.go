package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"

	"ecocapsule/internal/analysis"
)

// SARIF 2.1.0 is the interchange format GitHub code scanning (and most
// other CI annotation surfaces) ingest. Only the slice of the schema
// ecolint populates is modelled here: one run, one rule per analyzer,
// one result per finding with a single physical location.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders the findings as one SARIF run. Every configured
// analyzer appears in the rule table even when it found nothing, so a
// code-scanning backend can distinguish "rule passed" from "rule never
// ran". Paths are emitted relative to the working directory when
// possible — SARIF artifact URIs are expected repo-relative.
func writeSARIF(w io.Writer, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, len(analyzers))
	index := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}}
		index[a.Name] = i
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Analyzer]
		if !ok {
			// A finding from outside the suite, such as ecolint's own
			// check of ignore directives; still report it.
			idx = len(rules)
			index[d.Analyzer] = idx
			rules = append(rules, sarifRule{ID: d.Analyzer, ShortDescription: sarifMessage{Text: d.Analyzer}})
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "warning",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ecolint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifURI converts a diagnostic path to the forward-slash relative form
// SARIF viewers expect, falling back to the path as-is when it cannot be
// made relative.
func sarifURI(path string) string {
	if wd, err := filepath.Abs("."); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(rel, "..") {
			path = rel
		}
	}
	return filepath.ToSlash(path)
}
