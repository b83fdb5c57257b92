package warmescape

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempModule writes a one-package module whose function line spans are
// known, so canned -m output can be attributed deterministically.
func tempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module escfix\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package escfix

func Hot() *int {
	x := 42
	return &x
}

func Cold() *int {
	y := 7
	return &y
}
`
	if err := os.WriteFile(filepath.Join(dir, "warm.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnalyzeAttributionAndAllowlist(t *testing.T) {
	dir := tempModule(t)
	mOutput := `./warm.go:4:2: moved to heap: x
./warm.go:9:2: moved to heap: y
./warm.go:3:6: can inline Hot
./warm.go:4:2: leaking param: x
`
	cfg := &Config{Warm: []string{"escfix.Hot"}, Packages: []string{"escfix"}}
	findings, err := Analyze(dir, cfg, mOutput)
	if err != nil {
		t.Fatal(err)
	}
	// Only Hot's "moved to heap" counts: Cold is not warm, inline chatter
	// and leaking-param lines are not allocations.
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if findings[0].Func != "escfix.Hot" || findings[0].Msg != "moved to heap: x" {
		t.Fatalf("finding = %+v", findings[0])
	}

	cfg.Allow = []AllowEntry{{Func: "escfix.Hot", Msg: "moved to heap: x", Reason: "int boxed once per statement, amortised"}}
	findings, err = Analyze(dir, cfg, mOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("allowlisted escape still reported: %v", findings)
	}
}

// TestAnalyzeRejectsUnmatchedWarm: a warm entry naming no function in
// the configured packages must fail the gate instead of guarding nothing.
func TestAnalyzeRejectsUnmatchedWarm(t *testing.T) {
	dir := tempModule(t)
	cfg := &Config{Warm: []string{"escfix.Hot", "escfix.noSuchFunction"}, Packages: []string{"escfix"}}
	_, err := Analyze(dir, cfg, "")
	if err == nil || !strings.Contains(err.Error(), "escfix.noSuchFunction") {
		t.Fatalf("err = %v, want the unmatched warm entry named", err)
	}
}

// TestAnalyzeRelativeModuleDir: CI runs the gate with moduleDir ".";
// findings must still attribute (they silently did not while go list's
// absolute paths were compared against module-relative ones).
func TestAnalyzeRelativeModuleDir(t *testing.T) {
	dir := tempModule(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(wd, dir)
	if err != nil {
		t.Skip("temp dir not reachable relatively:", err)
	}
	cfg := &Config{Warm: []string{"escfix.Hot"}, Packages: []string{"escfix"}}
	findings, err := Analyze(rel, cfg, "./warm.go:4:2: moved to heap: x\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings through a relative module dir, want 1", len(findings))
	}
}

func TestLoadConfigRequiresReason(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ESCAPES_warm.json")
	bad := `{"warm":["p.F"],"packages":["p"],"allow":[{"func":"p.F","msg":"x escapes to heap"}]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("reason-less allow entry must be rejected")
	}
	good := `{"warm":["p.F"],"packages":["p"],"allow":[{"func":"p.F","msg":"x escapes to heap","reason":"documented"}]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Warm) != 1 || len(cfg.Allow) != 1 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestCheckFindsRealEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the compiler")
	}
	dir := tempModule(t)
	cfg := &Config{Warm: []string{"escfix.Hot"}, Packages: []string{"escfix"}}
	findings, err := Check(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Func != "escfix.Hot" {
		t.Fatalf("Check findings = %v, want exactly Hot's moved-to-heap", findings)
	}
}
