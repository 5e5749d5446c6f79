package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env is what every workload shares within one benchmark run.
type env struct {
	root string // the checkout under test
	bin  string // where the CLI binaries are built
	work string // this run's scratch directory
	self string // this executable, for re-executed children
	seed int64
}

// tools are the CLIs the untraced passes run as child processes.
var tools = []string{"wormsim", "wormsimd"}

// buildTools compiles the CLIs from the checkout at root into bin,
// before anything is timed.
func buildTools(root, bin string) error {
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %s: %w", strings.Join(tools, ", "), err)
	}
	return nil
}

// childRun is one finished child process.
type childRun struct {
	Wall   float64 // seconds from start to exit
	RSSMB  float64 // peak resident set (ru_maxrss)
	Stdout []byte
}

// command prepares a child that dies with the benchmark, whatever ends
// it.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// runChild runs a process to completion and reports its wall time,
// peak memory and standard output. A non-zero exit is an error that
// carries the child's standard error.
func runChild(ctx context.Context, dir, name string, args ...string) (childRun, error) {
	cmd := command(ctx, dir, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return childRun{}, fmt.Errorf("%s %s: %w\n%s", filepath.Base(name), strings.Join(args, " "), err, tail(stderr.String()))
	}
	return childRun{Wall: wall, RSSMB: maxRSSMB(cmd.ProcessState), Stdout: stdout.Bytes()}, nil
}

// maxRSSMB reads a finished child's peak resident set size.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// tail keeps the end of a child's error output.
func tail(s string) string {
	const keep = 2000
	if len(s) > keep {
		return "..." + s[len(s)-keep:]
	}
	return s
}
