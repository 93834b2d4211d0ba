package followscent_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignCitesRealTests keeps DESIGN.md honest: every `TestXxx`,
// `BenchmarkXxx` and `FuzzXxx` name the document cites (the module
// matrix's "Proof" column, the ablation index, the experiment index)
// must exist as a function in some _test.go file, so a renamed or
// deleted test cannot leave a dangling citation.
func TestDesignCitesRealTests(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	re := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]+)`")
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		cited[m[1]] = true
	}
	if len(cited) == 0 {
		t.Fatal("DESIGN.md cites no tests at all — extraction broken?")
	}

	defined := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fre := regexp.MustCompile(`func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]+)\(`)
		for _, m := range fre.FindAllStringSubmatch(string(b), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for name := range cited {
		if !defined[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go file defines", name)
		}
	}
}
