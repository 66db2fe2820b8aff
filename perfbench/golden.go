package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
)

// goldenJSON holds, per workload, the digest of every checked line of the
// set-up (round 0) and of the first rounds. It is written by -record-golden.
//
// One golden serves every seed. The seed selects the bytes the DFSIO files
// hold, which the read-back checks, and the testbeds' random sources, which
// a quiet run never draws from; the checked lines (sizes, virtual times,
// cycles, event counts, fingerprints) show neither, so they are the same at
// every seed. TestGoldenHoldsAtHeldOutSeed keeps that true.
//
//go:embed golden.json
var goldenJSON []byte

type goldenSet map[string][][]string

// loadGolden returns the digests recorded for a workload. A workload
// without a golden is an error: a run is never left unchecked.
func loadGolden(workload string) ([][]string, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if len(g[workload]) == 0 {
		return nil, fmt.Errorf("golden.json has no entry for %s; record one with -record-golden", workload)
	}
	return g[workload], nil
}

func digest(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordGolden runs the set-up and exactly rounds rounds of a workload at a
// seed and stores the digests of their lines in the golden file at path. It
// refuses to record a line the workload itself marks as failed.
func recordGolden(w workload, seed int64, rounds int, path string) error {
	st, out, err := w.setup(seed, false)
	if err != nil {
		return err
	}
	defer st.close()
	outs := []roundOut{out}
	for k := 1; k <= rounds; k++ {
		outs = append(outs, st.round())
	}
	var digests [][]string
	for k, o := range outs {
		var ds []string
		for _, l := range o.lines {
			if !l.ok {
				return fmt.Errorf("round %d: refusing to record a failed line: %s", k, l.text)
			}
			ds = append(ds, digest(l.text))
		}
		digests = append(digests, ds)
	}
	g := make(goldenSet)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	g[w.name] = digests
	return os.WriteFile(path, g.marshal(), 0o644)
}

// marshal renders the golden set with one round of digests per line, in
// sorted key order, so re-recording one entry leaves a readable diff.
func (g goldenSet) marshal() []byte {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, w := range keys {
		fmt.Fprintf(&b, " %q: [\n", w)
		for k, ds := range g[w] {
			line, _ := json.Marshal(ds) // a []string always marshals
			b.WriteString("  ")
			b.Write(line)
			b.WriteString(sep(k, len(g[w])))
		}
		b.WriteString(" ]" + sep(i, len(g)))
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

func sep(i, n int) string {
	if i < n-1 {
		return ",\n"
	}
	return "\n"
}
