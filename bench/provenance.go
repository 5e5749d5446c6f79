package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// loadSize is the machine size the workloads' load was chosen for: two
// client threads, two executors, two replica or figure jobs.
const loadSize = 2

// provenance records the machine and code a result was measured on.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	ProbeS     float64 `json:"probe_s"`
	Started    string  `json:"started"`
}

// collectProvenance describes the machine and the source tree at root,
// then runs the calibration probe.
func collectProvenance(root string) provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
		Kernel:     strings.TrimSpace(readString("/proc/sys/kernel/osrelease")),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	p.ProbeS = probe()
	return p
}

// probe times a fixed amount of random-access memory work, about one
// second on the reference machine. It is not a metric: the same code
// reads slower or faster as the machine's neighbours come and go, and
// the probe makes that drift visible next to every result.
func probe() float64 {
	const words = 1 << 23 // 64 MiB, well beyond any last-level cache
	buf := make([]uint64, words)
	for i := range buf {
		buf[i] = uint64(i)
	}
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 72_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (words - 1)
		buf[j] += x
	}
	probeSink = buf[x&(words-1)]
	return time.Since(start).Seconds()
}

// probeSink keeps the probe's work observable to the compiler.
var probeSink uint64

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func readString(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(data)
}

// commit names the code under test: the git commit when root is a
// clone, otherwise a hash of every Go source and module file, so two
// exported checkouts of one commit read the same.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
