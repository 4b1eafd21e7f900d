package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// compareFiles prints, for every workload and end-to-end metric present in
// both result files, the two medians over the files' untraced runs, how
// much worse the second is as a share of the first, the bound, and a
// verdict. It returns the process exit code: 1 if anything regressed.
//
//	ok          no worse than the bound allows
//	regressed   worse by more than the bound
//	unresolved  the runs of one side spread wider than the bound, so a
//	            difference of that size cannot be told from noise
func compareFiles(pathA, pathB string) int {
	a, err := loadResult(pathA)
	if err == nil {
		var b *result
		if b, err = loadResult(pathB); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric of one workload over a file's untraced runs.
func values(r *result, workload, metric string) []float64 {
	var v []float64
	for _, rr := range r.Runs {
		if m, ok := rr.Metrics[metric]; ok && rr.Workload == workload && !rr.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives; a single run has none.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1)-j*4) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return (q(3) - q(1)) / median(v)
}

func compareResults(a, b *result) int {
	for _, side := range []*result{a, b} {
		if !side.Env.Valid {
			fmt.Println("warning: a result is marked invalid:", side.Env.Reason)
		}
	}
	regressed := false
	fmt.Printf("%-11s %-20s %14s %14s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "bound", "iqr A", "iqr B", "verdict")
	for _, w := range workloadNames {
		for _, d := range endToEndMetrics {
			va, vb := values(a, w, d.name), values(b, w, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case max(sa, sb) > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Printf("%-11s %-20s %14.6g %14.6g %+7.1f%% %5.1f%% %6.1f%% %6.1f%%  %s\n",
				w, d.name, ma, mb, 100*worse, 100*d.bound, 100*sa, 100*sb, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
