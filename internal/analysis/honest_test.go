package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// TestReadsOnlyProfileIdentity enforces the honest-pipeline rule on the
// package's non-test code: it may read a device profile's identity
// (Name, Category, Manufacturer, OS, Year) for grouping, but no modelled
// behaviour — every behavioural number must come from the packets.
func TestReadsOnlyProfileIdentity(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	if _, err := conf.Check("v6lab/internal/analysis", fset, files, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	identity := map[string]bool{"Name": true, "Category": true, "Manufacturer": true, "OS": true, "Year": true}
	reads := 0
	for sel, s := range info.Selections {
		if s.Kind() != types.FieldVal || !isDeviceProfile(s.Recv()) {
			continue
		}
		reads++
		if field := s.Obj().Name(); !identity[field] {
			t.Errorf("%s: reads device.Profile.%s, which is modelled behaviour, not identity", fset.Position(sel.Pos()), field)
		}
	}
	if reads == 0 {
		t.Error("found no device.Profile field reads; the check is not seeing the package")
	}
}

// isDeviceProfile reports whether t is device.Profile or a pointer to it.
func isDeviceProfile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "v6lab/internal/device" && n.Obj().Name() == "Profile"
}
