package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"lemp"
)

// Output checks. Every check compares like with like: a top-k answer
// against a direct top-k Retrieve, an Above-θ answer against a direct
// Above-θ Retrieve (the two can differ in the last ulp for one pair, so
// they are never compared with each other). Probe ids and value bits must
// match exactly.

// canonicalTopK orders a top-k row by value descending, then probe id.
func canonicalTopK(row []lemp.Entry) {
	sort.Slice(row, func(a, b int) bool {
		if row[a].Value != row[b].Value {
			return row[a].Value > row[b].Value
		}
		return row[a].Probe < row[b].Probe
	})
}

// canonicalAbove orders an Above-θ row by probe id.
func canonicalAbove(row []lemp.Entry) {
	sort.Slice(row, func(a, b int) bool { return row[a].Probe < row[b].Probe })
}

// sameRow reports whether two canonical rows hold the same probes with
// bit-identical values.
func sameRow(got, want []lemp.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Probe != want[i].Probe || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			return false
		}
	}
	return true
}

// checkRow records one compared output; a mismatch fails its operation.
func (r *run) checkRow(what string, got, want []lemp.Entry) {
	r.checked++
	if sameRow(got, want) {
		return
	}
	r.mismatch++
	r.failed++
	if r.mismatch <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: %s mismatch:\n  got  %v\n  want %v\n", what, got, want)
	}
}

// checkFailed records a check that could not compare (undecodable body,
// missing row, reference error).
func (r *run) checkFailed(what string, err error) {
	r.checked++
	r.mismatch++
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// rowsByQuery splits collected entries into per-query canonical rows.
func rowsByQuery(entries []lemp.Entry, n int) [][]lemp.Entry {
	rows := make([][]lemp.Entry, n)
	for _, e := range entries {
		rows[e.Query] = append(rows[e.Query], lemp.Entry{Probe: e.Probe, Value: e.Value})
	}
	for _, row := range rows {
		canonicalAbove(row)
	}
	return rows
}

// stripQuery returns a canonical top-k copy of row without query indexes.
func stripQuery(row []lemp.Entry) []lemp.Entry {
	out := make([]lemp.Entry, len(row))
	for i, e := range row {
		out[i] = lemp.Entry{Probe: e.Probe, Value: e.Value}
	}
	canonicalTopK(out)
	return out
}

// tuningHistogram prints how the last tuning pass configured the buckets
// of ixs: a histogram of the switch threshold t_b and of the focus-set
// size φ_b. Tuning is timed, so two runs can choose differently; a moved
// candidate count can be traced to a moved choice here.
func (r *run) tuningHistogram(ixs []*lemp.Index) {
	var tb [11]int
	phi := map[int]int{}
	total, tuned := 0, 0
	for _, ix := range ixs {
		for _, b := range ix.Buckets() {
			total++
			if !b.Tuned {
				continue
			}
			tuned++
			tb[max(0, min(10, int(b.TB*10)))]++
			phi[b.Phi]++
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "tuning buckets=%d tuned=%d t_b:", total, tuned)
	for i, n := range tb {
		if n == 0 {
			continue
		}
		if i == 10 {
			fmt.Fprintf(&sb, " [1,..)=%d", n)
		} else {
			fmt.Fprintf(&sb, " [%.1f,%.1f)=%d", float64(i)/10, float64(i+1)/10, n)
		}
	}
	sb.WriteString(" phi:")
	keys := make([]int, 0, len(phi))
	for k := range phi {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %d=%d", k, phi[k])
	}
	r.section("%s", sb.String())
}
