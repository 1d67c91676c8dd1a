package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Record describes the host and the run, so results from different machines
// or trees are never compared unknowingly.
type Record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers"`
	CPU        string `json:"cpu"`
	CC         string `json:"cc_version"`
	GitCommit  string `json:"git_commit"`
	SourceHash string `json:"source_sha256"` // go.mod and internal/**/*.go
	CkptDir    string `json:"checkpoint_dir"`
	CkptFS     string `json:"checkpoint_fs"`
	Specs      int    `json:"specs"`
}

func hostRecord(w *Workload, root, dir string, trace bool, workers int) Record {
	r := Record{
		Workload:   w.Name,
		Seed:       w.Seed,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Workers:    workers,
		CPU:        cpuModel(),
		CC:         firstLine(cCompiler, "--version"),
		GitCommit:  "none (not a git checkout)",
		SourceHash: sourceHash(root),
		CkptDir:    dir,
		CkptFS:     fsType(dir),
		Specs:      len(w.Specs),
	}
	if c := firstLine("git", "-C", root, "rev-parse", "HEAD"); c != "" {
		r.GitCommit = c
	}
	return r
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

// firstLine runs a command and returns the first line of its output, or ""
// when it fails.
func firstLine(name string, args ...string) string {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(out), "\n")
	return strings.TrimSpace(line)
}

// sourceHash identifies the program under test when no git commit is
// available: a SHA-256 over go.mod and every Go file under internal/.
func sourceHash(root string) string {
	var files []string
	files = append(files, "go.mod")
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			if rel, rerr := filepath.Rel(root, p); rerr == nil {
				files = append(files, rel)
			}
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", st.Type)
}
