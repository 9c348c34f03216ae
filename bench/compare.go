package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// verdict of one (metric, workload) pair between two sets of runs.
type verdict string

const (
	vOK         verdict = "ok"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
)

type compareRow struct {
	metric, workload, unit string
	aMed, aQ1, aQ3         float64
	bMed, bQ1, bQ3         float64
	delta, bound           float64 // delta > 0 means b is worse, as a share of a's median
	na, nb                 int
	verdict                verdict
}

// judge compares b against a for a metric where `better` is "lower" or
// "higher". The pair is unresolved when either side's own spread (quartile
// distance over median) is wider than the bound; otherwise b is worse when
// its median is worse than a's by more than the bound.
func judge(a, b []float64, better string, bound float64) compareRow {
	r := compareRow{bound: bound, na: len(a), nb: len(b)}
	r.aMed, r.bMed = median(a), median(b)
	r.aQ1, r.aQ3 = quartiles(a)
	r.bQ1, r.bQ3 = quartiles(b)
	if r.aMed != 0 {
		r.delta = (r.bMed - r.aMed) / r.aMed
		if better == "higher" {
			r.delta = -r.delta
		}
	}
	spread := func(q1, q3, med float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / med
	}
	switch {
	case spread(r.aQ1, r.aQ3, r.aMed) > bound || spread(r.bQ1, r.bQ3, r.bMed) > bound:
		r.verdict = vUnresolved
	case r.delta > bound:
		r.verdict = vWorse
	default:
		r.verdict = vOK
	}
	return r
}

// compareFiles prints one row per (end-to-end metric, workload) present in
// both result files and reports whether any pair is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	rows := compareRecords(a, b)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tunit\tA median [q1,q3] n\tB median [q1,q3] n\tdelta\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g,%.4g] %d\t%.4g [%.4g,%.4g] %d\t%+.1f%%\t%.0f%%\t%s\n",
			r.metric, r.workload, r.unit, r.aMed, r.aQ1, r.aQ3, r.na, r.bMed, r.bQ1, r.bQ3, r.nb,
			r.delta*100, r.bound*100, r.verdict)
		anyWorse = anyWorse || r.verdict == vWorse
	}
	return anyWorse, tw.Flush()
}

func compareRecords(a, b []runRecord) []compareRow {
	collect := func(recs []runRecord) map[[2]string][]float64 {
		m := make(map[[2]string][]float64)
		for _, r := range recs {
			if r.Traced {
				continue
			}
			for name, v := range r.Metrics {
				k := [2]string{name, r.Workload}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	va, vb := collect(a), collect(b)
	var rows []compareRow
	for _, spec := range endToEnd {
		for _, wl := range workloads {
			k := [2]string{spec.name, wl.name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			r := judge(va[k], vb[k], spec.better, spec.bound)
			r.metric, r.workload, r.unit = spec.name, wl.name, spec.unit
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	return rows
}
