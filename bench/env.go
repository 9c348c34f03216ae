package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envInfo is the fingerprint stamped on every run record, so that two
// result files can be told apart before their numbers are compared.
type envInfo struct {
	CPUModel  string  `json:"cpu_model"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	GitSHA    string  `json:"git_sha"`
	GitDirty  bool    `json:"git_dirty"`
	LoadAvg1  float64 `json:"loadavg_1m_at_start"`
}

func fingerprint() envInfo {
	e := envInfo{CPUModel: "unknown", NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	// The driver's checkout is not a git repository; the SHA then stays
	// "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return e
}
