package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// envStamp is the machine a results file was measured on. Two files are
// comparable only when their stamps are equal.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPU        string `json:"cpu"`
}

func currentEnv() envStamp {
	env := envStamp{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// binaryStamp identifies the program under test: the commit recorded in the
// farmerd binary's build info (else git rev-parse in root, else
// "unknown") and the binary's sha256.
func binaryStamp(bin, root string) (commit, sum string, err error) {
	raw, err := os.ReadFile(bin)
	if err != nil {
		return "", "", err
	}
	h := sha256.Sum256(raw)
	sum = hex.EncodeToString(h[:])
	commit = "unknown"
	if info, err := buildinfo.ReadFile(bin); err == nil {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
			return commit, sum, nil
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return commit, sum, nil
}

// resultsFile is what -o writes: the runs of one farmerd binary on one
// machine, plus per-workload, per-metric medians and quartiles over them.
type resultsFile struct {
	Env           envStamp                           `json:"env"`
	Commit        string                             `json:"commit"`
	FarmerdSHA256 string                             `json:"farmerd_sha256"`
	Summary       map[string]map[string]summaryStats `json:"summary"`
	Runs          []*runResult                       `json:"runs"`
}

// summaryStats are the quartiles of one metric over a file's runs; Spread
// is the interquartile distance as a share of the median.
type summaryStats struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(runs []*runResult) map[string]map[string]summaryStats {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]summaryStats{}
	for w, byMetric := range values {
		out[w] = map[string]summaryStats{}
		for name, xs := range byMetric {
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			out[w][name] = summaryStats{Unit: units[name], N: len(xs), Median: med, Q1: q1, Q3: q3, Spread: spread,
				Mean: mean(xs), Min: slices.Min(xs), Max: slices.Max(xs)}
		}
	}
	return out
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds runs to the results file at path, creating it, and
// refreshes its summary. It refuses a file from another machine or another
// farmerd binary: one file holds one trajectory point.
func appendResults(path string, env envStamp, commit, sum string, runs []*runResult) error {
	f, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f = &resultsFile{Env: env, Commit: commit, FarmerdSHA256: sum}
	case err != nil:
		return err
	case f.Env != env:
		return fmt.Errorf("%s was measured on another environment (%+v, now %+v)", path, f.Env, env)
	case f.FarmerdSHA256 != sum:
		return fmt.Errorf("%s holds runs of another farmerd binary (%s at commit %s)", path, f.FarmerdSHA256, f.Commit)
	}
	f.Runs = append(f.Runs, runs...)
	f.Summary = summarize(f.Runs)
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// compareResults prints, per workload and metric, the medians and quartiles
// of two results files and the verdict against the metric's bound (see
// judge). Diagnostics, and every metric of a hand-run workload but
// error_frac, are printed without a verdict. It refuses files
// measured on different environments, and reports whether any metric got
// worse. The statistics are recomputed from the files' runs.
func compareResults(oldPath, newPath string, w io.Writer) (worse bool, err error) {
	oldF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	if oldF.Env != newF.Env {
		return false, fmt.Errorf("environments differ, refusing to compare:\n old %+v\n new %+v", oldF.Env, newF.Env)
	}
	fmt.Fprintf(w, "old: commit %s, %d runs\nnew: commit %s, %d runs\n", oldF.Commit, len(oldF.Runs), newF.Commit, len(newF.Runs))
	oldS, newS := summarize(oldF.Runs), summarize(newF.Runs)
	var names []string
	for name := range newS {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, wl := range names {
		for _, m := range endToEnd {
			o, okOld := oldS[wl][m.name]
			n, okNew := newS[wl][m.name]
			if !okOld || !okNew {
				continue
			}
			verdict, bound := judge(m, o, n), fmt.Sprintf("bound %g", m.bound)
			switch {
			case m.name == "error_frac":
				bound = "any increase"
			case m.diagnostic() || handRun(wl):
				verdict, bound = "-", "no bound"
			}
			worse = worse || verdict == "worse"
			fmt.Fprintf(&buf, "%-12s %-23s %12.4g [%.4g, %.4g] -> %12.4g [%.4g, %.4g] %-8s %-12s %s\n",
				wl, m.name, o.Median, o.Q1, o.Q3, n.Median, n.Q1, n.Q3, m.unit, bound, verdict)
		}
	}
	_, err = w.Write(buf.Bytes())
	return worse, err
}

// judge compares one metric's old and new statistics against its bound.
// It is "worse" or "better" when the median moved by more than the bound,
// and "ok" when it did not. When either side's own spread exceeds the
// bound, the medians cannot tell a change from noise: the metric is
// "unresolved" unless, beyond the moved median, every new run reads worse
// (or better) than every old run. A diagnostic gets "-".
func judge(m metricDef, o, n summaryStats) string {
	switch {
	case m.name == "error_frac":
		// Any failure is a regression; the mean sees one bad run among many.
		if n.Mean > o.Mean {
			return "worse"
		}
		return "ok"
	case m.diagnostic():
		return "-"
	}
	up := m.better == "lower" // whether a rising value is worse
	delta := n.Median - o.Median
	if !up {
		delta = -delta
	}
	limit := m.bound * math.Abs(o.Median)
	if o.Spread > m.bound || n.Spread > m.bound {
		allWorse, allBetter := n.Min > o.Max, n.Max < o.Min
		if !up {
			allWorse, allBetter = allBetter, allWorse
		}
		switch {
		case allWorse && delta > limit:
			return "worse"
		case allBetter && delta < -limit:
			return "better"
		}
		return "unresolved"
	}
	switch {
	case delta > limit:
		return "worse"
	case delta < -limit:
		return "better"
	}
	return "ok"
}
