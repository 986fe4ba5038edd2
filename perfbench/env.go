package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp is the environment every result is printed with, so numbers
// from different hosts or toolchains are never compared unknowingly.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func newStamp(root string, cfg config) stamp {
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Seconds:    int(cfg.seconds.Seconds()),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		Commit:     commitOf(root),
	}
}

// cpuModel reads the processor name Linux reports; elsewhere it is
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the source being measured: the VCS revision when the
// binary was built inside a git checkout, otherwise "tree:" plus a
// SHA-256 over go.mod and every .go file under root, so an exported
// tree without history is still identified.
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" && !modified {
			return rev
		}
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
