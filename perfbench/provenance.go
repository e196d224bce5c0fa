package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance ties a result to the code and host that produced it. The
// executable's hash identifies the code even where git cannot.
type provenance struct {
	ExeSHA256   string  `json:"exe_sha256"`
	GitHead     string  `json:"git_head"`
	GitDirty    string  `json:"git_dirty"` // "true", "false" or "unknown"
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GOARCH      string  `json:"goarch"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	RefsPerCore int     `json:"refs_per_core"`
	WarmupRefs  int     `json:"warmup_refs"`
	Trace       bool    `json:"trace"`
}

func hostProvenance() provenance {
	p := provenance{
		ExeSHA256:  "unknown",
		GitHead:    "unknown",
		GitDirty:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				p.ExeSHA256 = hex.EncodeToString(h.Sum(nil))
			}
			f.Close()
		}
	}
	// Only a repository rooted at the working directory counts: git
	// would otherwise report an enclosing repository's commit.
	wd, _ := os.Getwd()
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil || filepath.Clean(top) != filepath.Clean(wd) {
		return p
	}
	if head, err := git("rev-parse", "HEAD"); err == nil {
		p.GitHead = head
	}
	if st, err := git("status", "--porcelain"); err == nil {
		p.GitDirty = strconv.FormatBool(st != "")
	}
	return p
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
