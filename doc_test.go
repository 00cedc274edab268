package tcd_test

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/tcdnet/tcd/internal/exp"
)

// The documents whose commands a reader copies. CHANGES.md and ROADMAP.md
// are history: they name what once existed.
var docFiles = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	goRunRe   = regexp.MustCompile(`go run \./([\w./-]+)`)
	cmdDirRe  = regexp.MustCompile(`\b(cmd|examples)/(\{[\w,-]+\}|[a-z][\w-]*)`)
	expNameRe = regexp.MustCompile(`(?:^|[\s` + "`" + `"'(])-exp[ =]([a-z0-9][\w-]*(?:\|[a-z0-9][\w-]*)*)`)
)

// TestDocCommands holds the documents to the tree: every `go run ./dir`
// names a main package, every cmd/<name> and examples/<name> exists, and
// every `-exp a|b` name is a registry scenario.
func TestDocCommands(t *testing.T) {
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, m := range goRunRe.FindAllStringSubmatch(line, -1) {
				dir := strings.TrimSuffix(strings.TrimSuffix(m[1], "..."), "/")
				if pkg, err := build.ImportDir(dir, 0); err != nil || pkg.Name != "main" {
					at("go run ./%s: no main package there", dir)
				}
			}
			for _, m := range cmdDirRe.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(strings.Trim(m[2], "{}"), ",") {
					if fi, err := os.Stat(filepath.Join(m[1], name)); err != nil || !fi.IsDir() {
						at("%s/%s does not exist", m[1], name)
					}
				}
			}
			for _, m := range expNameRe.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], "|") {
					if exp.Lookup(name) == nil {
						at("-exp %s: no such scenario", name)
					}
				}
			}
		}
	}
}
