// Package warmescape turns the engine's "warm path allocates nothing"
// discipline (DESIGN.md §6, BENCH_serving gate) from a runtime assertion
// into a static one: it parses the compiler's escape-analysis output
// (`go build -gcflags=-m`) for a declared set of warm-path functions and
// fails on any heap escape not present in the committed allowlist
// (ESCAPES_warm.json, living next to BENCH_serving.json so the perf gate
// and the escape gate evolve together).
//
// Allowlist entries match on (function, message) rather than file:line,
// so unrelated edits that shift line numbers do not churn the gate; any
// genuinely new escape in a warm function is a fresh (function, message)
// pair and fails the build until it is either eliminated or explicitly
// admitted with a reason.
package warmescape

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Config is the committed ESCAPES_warm.json schema.
type Config struct {
	// Warm lists the guarded functions as "importpath.(recv).Name" or
	// "importpath.Name"; every heap escape attributed to one of these
	// must be allowlisted.
	Warm []string `json:"warm"`
	// Packages are the import paths built with -gcflags=-m (the warm
	// functions' homes).
	Packages []string `json:"packages"`
	// Allow admits known escapes; Reason is mandatory documentation.
	Allow []AllowEntry `json:"allow"`
}

// AllowEntry admits one (function, message) escape.
type AllowEntry struct {
	Func   string `json:"func"`
	Msg    string `json:"msg"`
	Reason string `json:"reason"`
}

// Finding is one non-allowlisted heap escape in a warm function.
type Finding struct {
	Pos  string // file:line:col from the compiler
	Func string // qualified warm function
	Msg  string // compiler message
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: heap escape in warm function %s: %s", f.Pos, f.Func, f.Msg)
}

// LoadConfig reads ESCAPES_warm.json.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, a := range c.Allow {
		if strings.TrimSpace(a.Reason) == "" {
			return nil, fmt.Errorf("%s: allow entry for %s (%q) has no reason", path, a.Func, a.Msg)
		}
	}
	return &c, nil
}

// escapeRe matches the compiler messages that mean a value moved to the
// heap. "leaking param" lines describe parameters the caller already
// owns and are not allocations on the warm path itself.
var escapeRe = regexp.MustCompile(`(escapes to heap|moved to heap)`)

// lineRe splits one -m diagnostic line.
var lineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// Check runs the compiler with escape analysis over the configured
// packages (in a private GOCACHE so diagnostics are never swallowed by
// a warm build cache) and returns the violations.
func Check(moduleDir string, cfg *Config) ([]Finding, error) {
	if len(cfg.Packages) == 0 {
		return nil, fmt.Errorf("ESCAPES_warm.json lists no packages")
	}
	cacheDir, err := os.MkdirTemp("", "hique-escape-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	args := append([]string{"build", "-gcflags=-m"}, cfg.Packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	cmd.Env = append(os.Environ(), "GOCACHE="+cacheDir, "GOFLAGS=")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, truncate(out.String(), 4000))
	}
	return Analyze(moduleDir, cfg, out.String())
}

// Analyze attributes -m output lines to warm functions and filters them
// through the allowlist. Split from Check so tests can feed canned
// compiler output without building anything.
func Analyze(moduleDir string, cfg *Config, mOutput string) ([]Finding, error) {
	// go list reports absolute directories; resolve the compiler's
	// module-relative paths against the same root or nothing attributes.
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	warm := map[string]bool{}
	for _, w := range cfg.Warm {
		warm[w] = true
	}
	allowed := map[[2]string]bool{}
	for _, a := range cfg.Allow {
		allowed[[2]string{a.Func, a.Msg}] = true
	}

	funcs, err := indexFuncs(moduleDir, cfg.Packages)
	if err != nil {
		return nil, err
	}
	// A warm name that matches no function guards nothing (a rename or a
	// typo would otherwise pass the gate silently).
	declared := map[string]bool{}
	for _, spans := range funcs {
		for _, sp := range spans {
			declared[sp.name] = true
		}
	}
	for _, w := range cfg.Warm {
		if !declared[w] {
			return nil, fmt.Errorf("warm function %s matches no function in packages %v", w, cfg.Packages)
		}
	}

	var findings []Finding
	for _, line := range strings.Split(mOutput, "\n") {
		m := lineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !escapeRe.MatchString(m[4]) {
			continue
		}
		file, msg := m[1], m[4]
		lineNo := atoi(m[2])
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file)
		}
		fn := funcs.at(file, lineNo)
		if fn == "" || !warm[fn] {
			continue
		}
		if allowed[[2]string{fn, msg}] {
			continue
		}
		findings = append(findings, Finding{
			Pos:  fmt.Sprintf("%s:%s:%s", m[1], m[2], m[3]),
			Func: fn,
			Msg:  msg,
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return findings, nil
}

// funcIndex maps file → sorted function spans for line attribution.
type funcIndex map[string][]funcSpan

type funcSpan struct {
	name       string // qualified "importpath.(recv).Name"
	start, end int
}

func (fi funcIndex) at(file string, line int) string {
	for _, sp := range fi[file] {
		if line >= sp.start && line <= sp.end {
			return sp.name
		}
	}
	return ""
}

// indexFuncs parses the configured packages' sources and records every
// function declaration's qualified name and line span.
func indexFuncs(moduleDir string, pkgs []string) (funcIndex, error) {
	type listed struct {
		ImportPath string
		Dir        string
		GoFiles    []string
	}
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	fi := funcIndex{}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		for _, g := range p.GoFiles {
			path := filepath.Join(p.Dir, g)
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi[path] = append(fi[path], funcSpan{
					name:  QualifiedName(p.ImportPath, fd),
					start: fset.Position(fd.Pos()).Line,
					end:   fset.Position(fd.End()).Line,
				})
			}
		}
	}
	for _, spans := range fi {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	}
	return fi, nil
}

// QualifiedName renders a FuncDecl as "importpath.(recv).Name" (methods)
// or "importpath.Name" (functions), matching the config's Warm entries.
func QualifiedName(importPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return importPath + "." + fd.Name.Name
	}
	recv := ""
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			recv = "*" + id.Name
		}
	case *ast.Ident:
		recv = t.Name
	}
	return fmt.Sprintf("%s.(%s).%s", importPath, recv, fd.Name.Name)
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n... (truncated)"
}
