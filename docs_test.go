// Documentation checks: the markdown link graph must stay intact. Every
// relative link in the top-level docs has to resolve to a file or
// directory in the repository; CI runs this alongside the code tests, so
// a renamed file breaks the build, not the reader. The same goes for the
// package graph: an internal package nothing imports is documentation that
// compiles, and the README's theorem → API map is the maintained copy.
package hybrid_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "CHANGES.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			link := m[1]
			if strings.HasPrefix(link, "http://") || strings.HasPrefix(link, "https://") ||
				strings.HasPrefix(link, "mailto:") || strings.HasPrefix(link, "#") {
				continue // external links and in-page anchors are out of scope
			}
			path := link
			if i := strings.IndexByte(path, '#'); i >= 0 {
				path = path[:i]
			}
			if path == "" {
				continue
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken relative link %q", doc, link)
			}
		}
	}
}

var cmdName = regexp.MustCompile(`\bcmd/([\w-]+)`)

// TestDocsNameExistingCommands: every cmd/<dir> the README, ARCHITECTURE or
// the verify notes name must exist — a doc that tells the reader to run a
// deleted command is a broken link too.
func TestDocsNameExistingCommands(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range cmdName.FindAllStringSubmatch(string(data), -1) {
			if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, m[0])
			}
		}
	}
}

// walkGo calls fn for every Go file of the repository, skipping hidden
// directories (.git, and the build cache a benchmark run leaves in
// .bench_build).
func walkGo(t *testing.T, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}

var mdName = regexp.MustCompile(`[\w./-]+\.md\b`)

// TestGoCommentsNameExistingDocs: a markdown file a Go comment names must
// exist, beside the Go file or at the repository root — a comment that
// sends the reader to a missing document is a broken link too.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	walkGo(t, func(path string) error {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdName.FindAllString(cg.Text(), -1) {
				_, errHere := os.Stat(filepath.Join(filepath.Dir(path), name))
				_, errRoot := os.Stat(name)
				if errHere != nil && errRoot != nil {
					t.Errorf("%s: a comment names %s, which does not exist", path, name)
				}
			}
		}
		return nil
	})
}

// TestEveryInternalPackageIsImported: every package under internal/ is
// imported by a non-test file outside its own directory — or, for the test
// harnesses, by a test file.
func TestEveryInternalPackageIsImported(t *testing.T) {
	harness := map[string]bool{"internal/simtest": true, "internal/chaos": true, "internal/experiments": true}
	packages := map[string]bool{} // directories under internal/ holding Go files
	imported := map[string]bool{}
	walkGo(t, func(path string) error {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(pkg, "repro/")
			if ok && pkg != dir && (harness[pkg] || !strings.HasSuffix(path, "_test.go")) {
				imported[pkg] = true
			}
		}
		return nil
	})
	for pkg := range packages {
		if !imported[pkg] {
			t.Errorf("%s is imported by no file outside itself: delete it or use it", pkg)
		}
	}
}
