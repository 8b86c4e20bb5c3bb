package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	fuzzFuncRE = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	// The Makefile's fuzz target runs one line per target:
	//	$(GO) test ./internal/pkg -run '^$$' -fuzz '^FuzzX$$' -fuzztime ...
	makeFuzzRE = regexp.MustCompile(`(?m)^\t\$\(GO\) test (\.\S*) -run '\^\$\$' -fuzz '\^(Fuzz\w+)\$\$'`)
	// The nightly workflow's fuzz matrix lists { pkg: ./internal/pkg, name: FuzzX }.
	nightlyFuzzRE = regexp.MustCompile(`\{ pkg: (\.\S*), name: (Fuzz\w+) \}`)
)

// TestFuzzTargetsScheduled keeps the fuzz schedule complete: every
// FuzzX target anywhere in the module must run in the Makefile's fuzz
// target and in the nightly workflow's fuzz matrix, and neither may list
// a target that no longer exists. A new decoder's fuzz target therefore
// cannot land unscheduled. The walk skips testdata, hidden directories
// and nested modules (bench/ has its own go.mod and its own schedule).
func TestFuzzTargetsScheduled(t *testing.T) {
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if dir := filepath.Dir(path); dir != "." {
			pkg = "./" + filepath.ToSlash(dir)
		}
		for _, m := range fuzzFuncRE.FindAllSubmatch(src, -1) {
			found = append(found, pkg+" "+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found in the module")
	}
	sort.Strings(found)
	for _, sched := range []struct {
		file string
		re   *regexp.Regexp
	}{
		{"Makefile", makeFuzzRE},
		{filepath.Join(".github", "workflows", "nightly.yml"), nightlyFuzzRE},
	} {
		src, err := os.ReadFile(sched.file)
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, m := range sched.re.FindAllSubmatch(src, -1) {
			listed = append(listed, string(m[1])+" "+string(m[2]))
		}
		sort.Strings(listed)
		if strings.Join(listed, "\n") != strings.Join(found, "\n") {
			t.Errorf("%s fuzz schedule:\n%s\nwant the fuzz targets in the tree:\n%s",
				sched.file, strings.Join(listed, "\n"), strings.Join(found, "\n"))
		}
	}
}
