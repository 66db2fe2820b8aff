package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vread/internal/core"
)

func TestParseOptionsFull(t *testing.T) {
	raw := []byte(`{
		"seed": 9,
		"freq_ghz": 3.2,
		"extra_vms": true,
		"vread": true,
		"transport": "tcp",
		"sriov": true,
		"scale": 0.5,
		"block_size_mb": 32,
		"scenario": "hybrid"
	}`)
	opt, scenario, err := ParseOptions(raw)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Seed != 9 || opt.FreqHz != 3_200_000_000 || !opt.ExtraVMs || !opt.VRead {
		t.Fatalf("opt = %+v", opt)
	}
	if opt.Transport != core.TransportTCP || !opt.SRIOV {
		t.Fatalf("opt = %+v", opt)
	}
	if opt.Scale != 0.5 || opt.BlockSize != 32<<20 {
		t.Fatalf("opt = %+v", opt)
	}
	if scenario != Hybrid {
		t.Fatalf("scenario = %v", scenario)
	}
}

func TestParseOptionsDefaults(t *testing.T) {
	opt, scenario, err := ParseOptions([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Transport != core.TransportRDMA || scenario != Colocated {
		t.Fatalf("defaults wrong: %+v %v", opt, scenario)
	}
	// The zero values defer to Options.withDefaults downstream.
	o := opt.withDefaults()
	if o.Seed != 1 || o.FreqHz != 2_000_000_000 {
		t.Fatalf("withDefaults = %+v", o)
	}
}

func TestParseOptionsRejectsUnknownFields(t *testing.T) {
	_, _, err := ParseOptions([]byte(`{"sead": 9}`))
	if err == nil || !strings.Contains(err.Error(), "sead") {
		t.Fatalf("typo not rejected: %v", err)
	}
}

func TestParseOptionsRejectsBadEnums(t *testing.T) {
	if _, _, err := ParseOptions([]byte(`{"transport": "carrier-pigeon"}`)); err == nil {
		t.Fatal("bad transport accepted")
	}
	if _, _, err := ParseOptions([]byte(`{"scenario": "somewhere"}`)); err == nil {
		t.Fatal("bad scenario accepted")
	}
}

func TestParseOptionsMalformedJSON(t *testing.T) {
	for _, raw := range []string{
		``,                  // empty file
		`{`,                 // truncated
		`{"seed": }`,        // syntax error
		`{"seed": "nine"}`,  // wrong type
		`[1, 2, 3]`,         // wrong shape
		`{"freq_ghz": 2.0,`, // unterminated object
	} {
		_, _, err := ParseOptions([]byte(raw))
		if err == nil {
			t.Errorf("ParseOptions(%q) accepted malformed input", raw)
			continue
		}
		if !strings.Contains(err.Error(), "bad scenario config") {
			t.Errorf("ParseOptions(%q) error %q lacks context", raw, err)
		}
	}
}

func TestParseScaleOptions(t *testing.T) {
	raw := []byte(`{
		"seed": 3,
		"shards": 4,
		"replication": 3,
		"faults": "rack.kill:after=5,max=1",
		"scale_out": {
			"domains": 4,
			"racks_per_domain": 10,
			"hosts_per_rack": 25,
			"datanodes": 12,
			"clients": 4,
			"files": 8,
			"file_kb": 256,
			"qps": [1000, 4000],
			"reads": 60,
			"kill_rack": "d0r0"
		}
	}`)
	opt, sc, scaleOut, err := ParseScaleOptions(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !scaleOut {
		t.Fatal("scale_out block not detected")
	}
	if opt.Seed != 3 || opt.Shards != 4 || opt.Replication != 3 || opt.Faults == nil {
		t.Fatalf("opt = %+v", opt)
	}
	if sc.Domains != 4 || sc.RacksPerDomain != 10 || sc.HostsPerRack != 25 {
		t.Fatalf("topology = %+v", sc)
	}
	if sc.Shards != 4 || sc.Replication != 3 || sc.Datanodes != 12 || sc.Clients != 4 {
		t.Fatalf("sc = %+v", sc)
	}
	if sc.Files != 8 || sc.FileSize != 256<<10 || sc.Reads != 60 || sc.KillRack != "d0r0" {
		t.Fatalf("sc = %+v", sc)
	}
	if len(sc.QPSLevels) != 2 || sc.QPSLevels[0] != 1000 || sc.QPSLevels[1] != 4000 {
		t.Fatalf("qps = %v", sc.QPSLevels)
	}
}

func TestParseScaleOptionsAbsent(t *testing.T) {
	_, _, scaleOut, err := ParseScaleOptions([]byte(`{"seed": 2, "vread": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if scaleOut {
		t.Fatal("scale_out detected in a figure-testbed scenario")
	}
}

func TestParseScaleOptionsRejectsTypos(t *testing.T) {
	_, _, _, err := ParseScaleOptions([]byte(`{"scale_out": {"domains": 2}, "sead": 1}`))
	if err == nil || !strings.Contains(err.Error(), "sead") {
		t.Fatalf("typo not rejected: %v", err)
	}
}

// TestParseOptionsRejectsNegativeFields: each of these configs used to be
// accepted and then panic deep inside the run (cpusched.New, a data window,
// a makeslice in the migration cell or in BuildTopology). Every parser must
// now refuse it with an error naming the field.
func TestParseOptionsRejectsNegativeFields(t *testing.T) {
	for _, tc := range []struct{ raw, field string }{
		{`{"freq_ghz": -1}`, "freq_ghz"},
		{`{"freq_ghz": 1e12}`, "freq_ghz"},
		{`{"block_size_mb": -1}`, "block_size_mb"},
		{`{"block_size_mb": 9007199254740992}`, "block_size_mb"},
		{`{"scale": -0.5}`, "scale"},
		{`{"shards": -2}`, "shards"},
		{`{"migrate": {"depths": [1, -1]}}`, "migrate.depths"},
		{`{"migrate": {"depths": [0]}}`, "migrate.depths"},
		{`{"migrate": {"trigger_after_us": -5}}`, "migrate.trigger_after_us"},
		{`{"scale_out": {"domains": -1}}`, "scale_out.domains"},
		{`{"scale_out": {"qps": [100, -1]}}`, "scale_out.qps"},
	} {
		_, _, err1 := ParseOptions([]byte(tc.raw))
		_, _, _, err2 := ParseScaleOptions([]byte(tc.raw))
		_, _, _, err3 := ParseMigrateOptions([]byte(tc.raw))
		for _, err := range []error{err1, err2, err3} {
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s: error %v does not name %s", tc.raw, err, tc.field)
			}
		}
	}
}

// FuzzParseOptions: no scenario file panics a parser, and an accepted one
// yields no negative quantity (seeds excepted: any seed is valid) and no
// migration depth below one.
func FuzzParseOptions(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario seeds: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"freq_ghz": 3.2, "block_size_mb": 32, "scale": 0.5}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		opt, _, err := ParseOptions(raw)
		if err == nil && (opt.FreqHz < 0 || opt.Scale < 0 || opt.BlockSize < 0 || opt.Shards < 0 || opt.Replication < 0) {
			t.Fatalf("accepted negative options %+v from %s", opt, raw)
		}
		_, sc, _, err := ParseScaleOptions(raw)
		if err == nil {
			neg := sc.Domains < 0 || sc.RacksPerDomain < 0 || sc.HostsPerRack < 0 || sc.Datanodes < 0 ||
				sc.Clients < 0 || sc.Files < 0 || sc.FileSize < 0 || sc.Reads < 0
			for _, q := range sc.QPSLevels {
				neg = neg || q < 0
			}
			if neg {
				t.Fatalf("accepted negative scale config %+v from %s", sc, raw)
			}
		}
		_, mc, _, err := ParseMigrateOptions(raw)
		if err == nil {
			neg := mc.ReadsPerStream < 0 || mc.ReadSize < 0 || mc.FileSize < 0 || mc.TriggerAfter < 0
			for _, d := range mc.Depths {
				neg = neg || d < 1
			}
			if neg {
				t.Fatalf("accepted negative migration config %+v from %s", mc, raw)
			}
		}
	})
}
