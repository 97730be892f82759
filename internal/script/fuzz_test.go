package script

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"strconv"
	"testing"

	"permodyssey/internal/synthweb"
)

// seedTestFiles are the test files whose string literals seed
// FuzzCompile: every literal the script parser accepts is a seed.
var seedTestFiles = []string{"interp_test.go", "stdlib_test.go", "switch_test.go"}

// testFileScripts returns the string literals of the seed test files
// that parse as scripts.
func testFileScripts(tb testing.TB) []string {
	tb.Helper()
	var out []string
	fset := token.NewFileSet()
	for _, name := range seedTestFiles {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if src, err := strconv.Unquote(lit.Value); err == nil {
				if _, err := Parse(src); err == nil {
					out = append(out, src)
				}
			}
			return true
		})
	}
	return out
}

// FuzzCompile guards the one failure mode a single execution engine
// adds: a script the parser accepts but the compiler rejects, which
// would silently drop that script's API activity from a crawl.
// Property: if Parse accepts src then Compile accepts it, and neither
// panics. Seeds are the golden corpus, the scripts of the interpreter
// test files and every synthetic-web script body.
func FuzzCompile(f *testing.F) {
	for _, c := range compileGolden {
		f.Add(c.src)
	}
	for _, src := range testFileScripts(f) {
		f.Add(src)
	}
	for _, hs := range synthweb.HostScripts {
		f.Add(hs.Body)
	}
	for _, w := range synthweb.Catalog {
		f.Add(w.Script)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Compile(prog); err != nil {
			t.Fatalf("Parse accepts but Compile rejects %q: %v", src, err)
		}
	})
}
