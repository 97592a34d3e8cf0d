package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDanglingPaths holds the named-path check to one resolving and one
// dangling fixture: every way the docs name a path that exists passes,
// and a package, command or record that left the tree is reported by
// name — in a code span, a span wrapped onto the next line, or a fenced
// block.
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
		"Not paths: `engine.Run`, `a/b.json`, `-tolerance 0.25`, `dir=./cmd/fuzz`.\n" +
		"```sh\ngo run ./cmd/fuzz -q   # internal/gone is only a comment here\ngo test ./internal/...\n```\n" +
		"A span may wrap: `GOMAXPROCS=1 go run\n./cmd/fuzz -q`.\n"
	dangling := "See `internal/gone`, `go run ./cmd/gone -compare .` and `GONE_PR*.json`.\n" +
		"```\ngo run ./cmd/fenced -seed 1\n```\n" +
		"A wrapped span: `go run -race\n./internal/wrapped -q`, and `dir=./cmd/embedded`.\n"

	if got := danglingPaths(root, "resolving.md", resolving); len(got) != 0 {
		t.Errorf("resolving fixture reported %q", got)
	}
	got := danglingPaths(root, "dangling.md", dangling)
	want := []string{`"./cmd/fenced"`, `"internal/gone"`, `"./cmd/gone"`, `"GONE_PR*.json"`,
		`"./internal/wrapped"`, `"./cmd/embedded"`}
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
// named through their package resolve, with or without a call suffix, in
// a code span or an indented fenced go block, and a field or function
// the package no longer declares is reported by name — from a span or a
// go block, never from a fenced block in another language.
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
		"`fuzz.Gone` names no directory under internal/.\n" +
		"  ```go\n  res := engine.Run(engine.Config{MaxSends: 3})\n  ```\n"
	if got := staleNames(root, "live.md", live); len(got) != 0 {
		t.Errorf("live fixture reported %q", got)
	}
	stale := "The wall clock was `engine.Config.Deadline`.\n" +
		"```go\ncfg := engine.Config{}\nengine.Gone(cfg)\n```\n" +
		"```sh\necho engine.Shell\n```\n"
	got := staleNames(root, "stale.md", stale)
	want := []string{`"engine.Config.Deadline"`, `"engine.Gone"`}
	if len(got) != len(want) {
		t.Fatalf("stale fixture reported %q, want one finding each for %v", got, want)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("finding %d = %q, want it to name %s", i, got[i], w)
		}
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

// TestRandImports holds the math/rand rule to a fixture tree: the three
// scenario generators, test files and benchmark/ may import it, in either
// version, and any other non-test file is reported by path.
func TestRandImports(t *testing.T) {
	root := t.TempDir()
	rand := "// Package x is a fixture.\npackage x\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n"
	randV2 := "// Package x is a fixture.\npackage x\n\nimport r \"math/rand/v2\"\n\nvar _ = r.Int\n"
	for path, body := range map[string]string{
		"internal/fuzz/generate.go":    rand,
		"internal/fuzz/campaign.go":    randV2,
		"internal/hom/assignment.go":   rand,
		"internal/hom/x_test.go":       rand,
		"benchmark/workloads.go":       rand,
		"internal/adversary/pieces.go": randV2,
		"cmd/tool/main.go":             rand,
		"internal/inject/coin.go":      "// Package inject is a fixture.\npackage inject\n\nimport \"math/bits\"\n\nvar _ = bits.Mul64\n",
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := checkPackageDocs(root)
	want := []string{"cmd/tool/main.go imports math/rand:", "internal/adversary/pieces.go imports math/rand/v2:"}
	if len(got) != len(want) {
		t.Fatalf("fixture reported %q, want one finding each for %q", got, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("finding %d = %q, want it to start %q", i, got[i], w)
		}
	}
}

// TestCompositeLiterals holds the Composite rule to a fixture tree: the
// scenario compiler, the attack constructions, test files and anything
// outside cmd/ and internal/ may write an adversary.Composite literal,
// and a literal anywhere else is reported by file and line, whether
// taken by address or not; naming the type without a literal is fine.
func TestCompositeLiterals(t *testing.T) {
	root := t.TempDir()
	lit := func(pkg, expr string) string {
		return "// Package " + pkg + " is a fixture.\npackage " + pkg + "\n\nimport \"homonyms/internal/adversary\"\n\nvar _ = " + expr + "\n"
	}
	for path, body := range map[string]string{
		"internal/fuzz/scenario.go":       lit("fuzz", "&adversary.Composite{}"),
		"internal/attacks/mirror.go":      lit("attacks", "&adversary.Composite{}"),
		"internal/solvability/x_test.go":  lit("solvability", "adversary.Composite{}"),
		"examples/quickstart/main.go":     lit("main", "&adversary.Composite{}"),
		"internal/core/core.go":           lit("core", "(*adversary.Composite)(nil)"),
		"internal/solvability/suite.go":   lit("solvability", "\n\t&adversary.Composite{}"),
		"cmd/tool/main.go":                lit("main", "adversary.Composite{Selector: nil}"),
		"internal/fuzz/scenario_extra.go": lit("fuzz", "&adversary.Composite{}"),
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := checkPackageDocs(root)
	want := []string{"cmd/tool/main.go:6 writes", "internal/fuzz/scenario_extra.go:6 writes", "internal/solvability/suite.go:7 writes"}
	if len(got) != len(want) {
		t.Fatalf("fixture reported %q, want one finding each for %q", got, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("finding %d = %q, want it to start %q", i, got[i], w)
		}
	}
}
