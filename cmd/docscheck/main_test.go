package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDanglingPaths holds the named-path check to one resolving and one
// dangling fixture: every way the docs name a path that exists passes,
// and a package or record that left the tree is reported by name.
func TestDanglingPaths(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"internal/engine", "cmd/fuzz"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	resolving := "The kernel is **`internal/engine`**; replay with `go run ./cmd/fuzz -replay dir`\n" +
		"against `BENCHMARK.json` (or any `BENCH*.json`), writing `OUT_<n>.json`.\n" +
		"Not paths: `engine.Run`, `a/b.json`, `-tolerance 0.25`.\n"
	dangling := "See `internal/gone`, `go run ./cmd/gone -compare .` and `GONE_PR*.json`.\n"

	if got := danglingPaths(root, "resolving.md", resolving); len(got) != 0 {
		t.Errorf("resolving fixture reported %q", got)
	}
	got := danglingPaths(root, "dangling.md", dangling)
	want := []string{`"internal/gone"`, `"./cmd/gone"`, `"GONE_PR*.json"`}
	if len(got) != len(want) {
		t.Fatalf("dangling fixture reported %q, want one finding each for %v", got, want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want it to name %s", i, got[i], w)
		}
	}
}

// TestStaleNames holds the name check to one live and one stale
// reference against a fixture package: a method, a field and a function
// named through their package resolve, with or without a call suffix,
// and a field the package no longer declares is reported by name.
func TestStaleNames(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "engine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package engine\n\ntype Config struct{ MaxSends int }\n\nfunc (Config) Validate() {}\n\nfunc Run() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "engine.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	live := "Set `engine.Config.MaxSends` and call `engine.Run(cfg)` or `engine.Config.Validate()`;\n" +
		"`fuzz.Gone` names no directory under internal/.\n"
	if got := staleNames(root, "live.md", live); len(got) != 0 {
		t.Errorf("live fixture reported %q", got)
	}
	got := staleNames(root, "stale.md", "The wall clock was `engine.Config.Deadline`.\n")
	if len(got) != 1 || !strings.Contains(got[0], `"engine.Config.Deadline"`) {
		t.Errorf("stale fixture reported %q, want one finding naming engine.Config.Deadline", got)
	}
}

// TestStaleRunPatterns holds the CI -run check to a fixture workflow: an
// anchored name, a family prefix, a bare name and the deliberate '^$'
// pass, and the one alternative no declared test answers is reported by
// name.
func TestStaleRunPatterns(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"internal/x/x_test.go": "package x\n\nimport \"testing\"\n\nfunc TestAlpha(*testing.T) {}\nfunc TestBetaOne(*testing.T) {}\n",
		".github/workflows/ci.yml": "run: go test -run '^TestAlpha$|TestBeta|TestGone' ./...\n" +
			"run: go test -run TestAlpha -v ./internal/x/\n" +
			"run: go test -run '^$' -bench . ./...\n",
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := staleRunPatterns(root, ".github/workflows/ci.yml")
	if len(got) != 1 || !strings.Contains(got[0], `"TestGone"`) {
		t.Errorf("fixture reported %q, want one finding naming TestGone", got)
	}
}
