package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfigWithoutFreqReportsFiniteUtilization runs a scenario file that
// omits freq_ghz: the utilization block must divide by the testbed's
// defaulted frequency, not the unset one, so no entity reads +Inf%.
func TestConfigWithoutFreqReportsFiniteUtilization(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "c.json")
	if err := os.WriteFile(cfg, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-config", cfg, "-size-mb", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "CPU utilization during reads") || !strings.Contains(report, "client") {
		t.Fatalf("no utilization block in report:\n%s", report)
	}
	if strings.Contains(report, "Inf") || strings.Contains(report, "NaN") {
		t.Fatalf("non-finite utilization in report:\n%s", report)
	}
}
