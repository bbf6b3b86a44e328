package main

import (
	"strings"
	"testing"

	"past/internal/trace"
)

// TestReplaySyntheticLog round-trips the synthetic log through the squid
// parser and replays it: every record becomes an event, repeats find
// their file, and some of those lookups are served from a cache.
func TestReplaySyntheticLog(t *testing.T) {
	records, err := trace.ReadSquidLog(strings.NewReader(syntheticLog()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 12000 {
		t.Fatalf("parsed %d records, want 12000", len(records))
	}
	var out strings.Builder
	if err := replay(&out, records); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"workload: 12000 events, ", " 32 clients, ", "replay done: ", "lookups: "} {
		if !strings.Contains(got, want) {
			t.Fatalf("replay output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "cache hit rate 0.0%") {
		t.Fatalf("no lookup was served from a cache:\n%s", got)
	}
}
