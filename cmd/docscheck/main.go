// Command docscheck is the documentation gate behind CI's docs job. It
// enforces five invariants the repository documents itself with:
//
//  1. Every non-main package has a package comment (the same contract
//     staticcheck's ST1000 checks, enforced here without a network
//     dependency so the gate also runs locally and in sandboxed builds).
//  2. Every relative link in the given markdown files resolves to a file
//     or directory that actually exists, so README.md and ARCHITECTURE.md
//     cannot silently rot as the tree moves underneath them.
//  3. So does every repository path those files name in code — a
//     back-ticked `internal/…`, `cmd/…` or root `*.json` word, and any
//     `./internal/…` or `./cmd/…` inside a code span or a fenced block —
//     so a deleted package, command or record cannot linger in prose or
//     in an example command.
//  4. So does every `pkg.Name` or `pkg.Type.Member` they name, for pkg
//     a directory under internal/: its non-test files declare it.
//  5. Every test name in a `-run` pattern of .github/workflows/ci.yml
//     selects a declared func Test…, so a renamed test cannot silently
//     drop out of a CI step.
//
// Usage:
//
//	docscheck [-root DIR] [markdown files...]
//
// With no files, README.md, ARCHITECTURE.md and the verify skill's
// SKILL.md under the root are checked. Exit status 1 on any violation, with one line per finding.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 {
		files = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}
	}

	var findings []string
	findings = append(findings, checkPackageDocs(*root)...)
	findings = append(findings, staleRunPatterns(*root, ".github/workflows/ci.yml")...)
	for _, f := range files {
		findings = append(findings, checkMarkdown(*root, f)...)
	}

	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "docscheck:", f)
		}
		os.Exit(1)
	}
	fmt.Println("docscheck: package docs, markdown links, named paths, names and CI test names OK")
}

// checkPackageDocs walks every Go package directory under root and
// requires a package comment on at least one non-test file of each
// non-main package.
func checkPackageDocs(root string) []string {
	var findings []string
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgDirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("walk: %v", err)}
	}
	for dir := range pkgDirs {
		findings = append(findings, checkOnePackage(dir)...)
	}
	sort.Strings(findings)
	return findings
}

// checkOnePackage parses the non-test files of one directory and reports
// a finding when no file carries a package comment.
func checkOnePackage(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	fset := token.NewFileSet()
	pkgName := ""
	hasDoc := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return []string{fmt.Sprintf("%s: %v", dir, err)}
		}
		pkgName = f.Name.Name
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasDoc = true
		}
	}
	if pkgName == "" || pkgName == "main" || hasDoc {
		// Command packages are documented too in this repository, but the
		// hard gate mirrors ST1000 and only insists on library packages.
		return nil
	}
	return []string{fmt.Sprintf("%s: package %s has no package comment (ST1000)", dir, pkgName)}
}

// linkPattern matches inline markdown links [text](target).
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdown reads one markdown file under root and checks its
// relative links and the repository paths it names.
func checkMarkdown(root, file string) []string {
	raw, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", file, err)}
	}
	findings := append(brokenLinks(root, file, string(raw)), danglingPaths(root, file, string(raw))...)
	return append(findings, staleNames(root, file, string(raw))...)
}

// brokenLinks verifies that every relative link in the file's text
// resolves under root. Absolute URLs and pure in-page anchors are
// skipped; a trailing #fragment on a relative link is ignored.
func brokenLinks(root, file, text string) []string {
	var findings []string
	for _, m := range linkPattern.FindAllStringSubmatch(text, -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(root, filepath.Dir(file), target)
		if _, err := os.Stat(resolved); err != nil {
			findings = append(findings, fmt.Sprintf("%s: broken link %q (%v)", file, m[1], err))
		}
	}
	return findings
}

// codeSpan matches an inline back-ticked span, which may wrap onto the
// next line but not across a blank one; fencedBlock matches a fenced
// code block. repoPath matches a span word that names a repository path:
// anything under internal/ or cmd/, or a JSON file at the root. dotPath
// finds a ./internal/ or ./cmd/ path anywhere in code.
var (
	codeSpan    = regexp.MustCompile("`(?:[^`\n]|\n[^`\n])+`")
	fencedBlock = regexp.MustCompile("(?ms)^ *```.*?^ *```")
	repoPath    = regexp.MustCompile(`^(\./)?(internal|cmd)/|^[^/]+\.json$`)
	dotPath     = regexp.MustCompile(`\./(?:internal|cmd)/[\w./*-]*`)
)

// danglingPaths verifies that every repository path the file's code
// names exists under root. A word with a <placeholder> is skipped; one
// with a * must match at least one file; a trailing /... (a go package
// pattern) names its directory.
func danglingPaths(root, file, text string) []string {
	var words []string
	for _, block := range fencedBlock.FindAllString(text, -1) {
		words = append(words, dotPath.FindAllString(block, -1)...)
	}
	for _, span := range codeSpans(text) {
		for _, word := range strings.Fields(strings.Trim(span, "`")) {
			if repoPath.MatchString(word) {
				words = append(words, word)
			} else {
				words = append(words, dotPath.FindAllString(word, -1)...)
			}
		}
	}
	var findings []string
	for _, word := range words {
		if strings.Contains(word, "<") {
			continue
		}
		path := strings.TrimSuffix(strings.TrimSuffix(word, "..."), "/")
		if hits, _ := filepath.Glob(filepath.Join(root, path)); len(hits) == 0 {
			findings = append(findings, fmt.Sprintf("%s: named path %q does not exist", file, word))
		}
	}
	return findings
}

// codeSpans lists the inline code spans of text outside its fenced
// blocks.
func codeSpans(text string) []string {
	return codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1)
}

// qualifiedName matches pkg.Name or pkg.Type.Member, both exported, not
// itself the tail of a longer selector.
var qualifiedName = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// staleNames verifies that every qualified name the file's code spans use,
// for a qualifier under internal/, is declared by that package.
func staleNames(root, file, text string) []string {
	var findings []string
	for _, m := range qualifiedName.FindAllStringSubmatch(strings.Join(codeSpans(text), " "), -1) {
		pkg, name := m[1], strings.TrimSuffix(m[2]+"."+m[3], ".")
		if names := declaredNames(filepath.Join(root, "internal", pkg)); names != nil && !names[name] {
			findings = append(findings, fmt.Sprintf("%s: %q is not declared in internal/%s", file, pkg+"."+name, pkg))
		}
	}
	return findings
}

// declaredNames lists every non-test top-level name, method name and
// Type.Member of a package directory; nil when it holds no Go file.
func declaredNames(dir string) map[string]bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(files) == 0 {
		return nil
	}
	names, typ := map[string]bool{}, "" // typ: the type whose members are in view
	for _, path := range files {
		if f, _ := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution); f != nil && !strings.HasSuffix(path, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl: // prose may name a method by its package alone
					names[n.Name.Name] = true
					if n.Recv != nil {
						recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(n.Recv.List[0].Type), "*"), "[")
						names[recv+"."+n.Name.Name] = true
					}
					return false
				case *ast.ValueSpec:
					for _, id := range n.Names {
						names[id.Name] = true
					}
				case *ast.TypeSpec:
					typ = n.Name.Name
					names[typ] = true
				case *ast.Field:
					for _, id := range n.Names {
						names[typ+"."+id.Name] = true
					}
				}
				return true
			})
		}
	}
	return names
}

// runFlag matches the pattern of a go test -run flag, quoted or bare.
var runFlag = regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*"|[^\s'"]+)`)

// staleRunPatterns verifies that every alternative of every -run pattern
// in the workflow selects at least one func Test… declared under root,
// matched as go test matches a top-level name: unanchored, so a prefix
// selects a family. '^$', which selects no test on purpose, is skipped.
func staleRunPatterns(root, workflow string) []string {
	raw, err := os.ReadFile(filepath.Join(root, workflow))
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", workflow, err)}
	}
	tests, err := declaredTests(root)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", workflow, err)}
	}
	var findings []string
	for _, m := range runFlag.FindAllStringSubmatch(string(raw), -1) {
		for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
			alt, _, _ = strings.Cut(alt, "/")
			if strings.Trim(alt, "^$") == "" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err == nil && slices.ContainsFunc(tests, re.MatchString) {
				continue
			}
			findings = append(findings, fmt.Sprintf("%s: -run pattern %q selects no declared test", workflow, alt))
		}
	}
	return findings
}

// declaredTests lists the top-level func Test… of every test file under
// root.
func declaredTests(root string) ([]string, error) {
	var tests []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if f, _ := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution); f != nil {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					tests = append(tests, fn.Name.Name)
				}
			}
		}
		return nil
	})
	return tests, err
}
