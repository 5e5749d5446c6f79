package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileTestPatternsMatch keeps the Makefile's test gates honest:
// go test passes a -run, -fuzz or -bench pattern that matches nothing
// without a word, so a renamed or deleted test silently drops out of
// the gate that names it. Every alternative of every such pattern on a
// `$(GO) test` recipe line must match a function declared in the
// _test.go files of the packages that line tests: -run a Test, Fuzz or
// Example function, -fuzz a Fuzz function, -bench a Benchmark. A -run
// beside -fuzz or -bench only deselects the tests and is not checked.
func TestMakefileTestPatternsMatch(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{
		"-run":   {"Test", "Fuzz", "Example"},
		"-fuzz":  {"Fuzz"},
		"-bench": {"Benchmark"},
	}
	valued := map[string]bool{"-benchtime": true, "-count": true, "-fuzztime": true, "-fuzzminimizetime": true, "-timeout": true}
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "\t") || !strings.Contains(line, "$(GO) test") {
			continue
		}
		fields := shellFields(strings.ReplaceAll(line, "$$", "$"))
		patterns := map[string]string{}
		var dirs []string
		for i := 0; i < len(fields); i++ {
			f := fields[i]
			switch {
			case kinds[f] != nil && i+1 < len(fields):
				patterns[f] = fields[i+1]
				i++
			case valued[f]:
				i++
			case f == "." || strings.HasPrefix(f, "./"):
				dirs = append(dirs, f)
			}
		}
		if patterns["-fuzz"] != "" || patterns["-bench"] != "" {
			delete(patterns, "-run")
		}
		if len(patterns) == 0 {
			continue
		}
		funcs := declaredTestFuncs(t, dirs)
		for flag, pattern := range patterns {
			for _, alt := range strings.Split(strings.Split(pattern, "/")[0], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: %s alternative %q: %v", n+1, flag, alt, err)
					continue
				}
				checked++
				if !matchesAny(re, funcs, kinds[flag]) {
					t.Errorf("Makefile:%d: %s alternative %q matches no %s function in %s",
						n+1, flag, alt, strings.Join(kinds[flag], "/"), strings.Join(dirs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test pattern in the Makefile; the scan is broken")
	}
}

// matchesAny reports whether re matches a name with one of prefixes.
func matchesAny(re *regexp.Regexp, names []string, prefixes []string) bool {
	for _, name := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// declaredTestFuncs returns the names of the top-level functions
// declared in the _test.go files of the package directories ("./...":
// every package of this module, as go test expands it).
func declaredTestFuncs(t *testing.T, dirs []string) []string {
	t.Helper()
	var names []string
	parseDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	for _, dir := range dirs {
		root, recursive := strings.CutSuffix(dir, "/...")
		if !recursive {
			parseDir(dir)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a nested module: ./... stops at it
			}
			parseDir(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// shellFields splits a recipe line into words, keeping single-quoted
// strings together (without their quotes).
func shellFields(line string) []string {
	var (
		fields []string
		cur    strings.Builder
		quoted bool
		inWord bool
	)
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				fields = append(fields, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		fields = append(fields, cur.String())
	}
	return fields
}
