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

// TestEveryInternalPackageIsImported: every package under internal/ is
// imported by a non-test file outside its own directory — or, for the test
// harnesses, by a test file.
func TestEveryInternalPackageIsImported(t *testing.T) {
	harness := map[string]bool{"internal/simtest": true, "internal/chaos": true}
	packages := map[string]bool{} // directories under internal/ holding Go files
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and the build cache a benchmark run leaves in .bench_build
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
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
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range packages {
		if !imported[pkg] {
			t.Errorf("%s is imported by no file outside itself: delete it or use it", pkg)
		}
	}
}
