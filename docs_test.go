package nexus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsWithSymbols are the documents whose backticked Go citations must
// resolve (scripts/check_docs.sh, step 3).
var docsWithSymbols = []string{"docs/ARCHITECTURE.md", "docs/API.md", "docs/OPERATIONS.md", "DESIGN.md", "README.md", "EXPERIMENTS.md"}

// citation matches a backticked `a.B`, `a.B.C` or `a.B()`.
var citation = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\\([^`]*\\))?`")

// symbolIndex is what the non-test Go tree declares: top-level names per
// package name, and the fields and methods of every named type.
type symbolIndex struct {
	decls   map[string]map[string]bool // package → top-level names
	members map[string]map[string]bool // type name → fields and methods
	pkgOf   map[string]map[string]bool // type name → packages declaring it
}

func (ix *symbolIndex) add(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}

// indexTree parses every non-test Go file under root.
func indexTree(t *testing.T, root string) *symbolIndex {
	ix := &symbolIndex{decls: map[string]map[string]bool{}, members: map[string]map[string]bool{}, pkgOf: map[string]map[string]bool{}}
	embeds := map[string][]string{} // type name → embedded type names
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					ix.add(ix.decls, pkg, d.Name.Name)
				} else {
					ix.add(ix.members, typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							ix.add(ix.decls, pkg, n.Name)
						}
					case *ast.TypeSpec:
						name := s.Name.Name
						ix.add(ix.decls, pkg, name)
						ix.add(ix.pkgOf, name, pkg)
						var fields *ast.FieldList
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							if len(fld.Names) == 0 {
								embeds[name] = append(embeds[name], typeName(fld.Type))
								ix.add(ix.members, name, typeName(fld.Type))
							}
							for _, n := range fld.Names {
								ix.add(ix.members, name, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promote the members of embedded types, to a fixed point.
	for changed := true; changed; {
		changed = false
		for outer, inner := range embeds {
			for _, e := range inner {
				for m := range ix.members[e] {
					if !ix.members[outer][m] {
						ix.add(ix.members, outer, m)
						changed = true
					}
				}
			}
		}
	}
	return ix
}

// typeName is the bare name of a receiver or embedded field type: T, *T,
// pkg.T, T[P].
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func exported(name string) bool { return name != "" && name[0] >= 'A' && name[0] <= 'Z' }

// resolve reports whether a dotted citation names something the tree
// declares. A citation whose first part is neither a package nor a type of the
// tree (the standard library, a variable, a file name) is not checked, nor is
// one with a lower-case member (a bench metric name such as `core.mcimr_ms`).
func (ix *symbolIndex) resolve(parts []string) bool {
	for _, p := range parts[1:] {
		if !exported(p) {
			return true
		}
	}
	head, name := parts[0], parts[1]
	var ok bool
	switch {
	case ix.decls[head] != nil: // pkg.Name
		ok = ix.decls[head][name]
	case ix.pkgOf[head] != nil: // Type.Member
		ok = ix.members[head][name]
	default:
		return true
	}
	if !ok || len(parts) == 2 {
		return ok
	}
	// The third part is a member of the type the second names or, when the
	// second is a field (whose name need not be its type's), of some type.
	if ix.pkgOf[name] != nil {
		return ix.members[name][parts[2]]
	}
	for _, ms := range ix.members {
		if ms[parts[2]] {
			return true
		}
	}
	return false
}

// TestDocSymbols fails on a Go symbol the docs cite in backticks that the
// tree no longer declares: `pkg.Name` must be a top-level declaration of a
// package of that name, and `Type.Member` a field or method of a type of that
// name, so a renamed or deleted symbol cannot stay documented.
func TestDocSymbols(t *testing.T) {
	ix := indexTree(t, ".")
	for _, doc := range docsWithSymbols {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range citation.FindAllStringSubmatch(line, -1) {
				if !ix.resolve(strings.Split(m[1], ".")) {
					t.Errorf("%s:%d: `%s` is not declared in the Go sources", doc, i+1, m[1])
				}
			}
		}
	}
}
