package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"sort"
)

// A Fact is a serializable datum an analyzer attaches to a package-level
// object in one package and consumes in another — the mechanism that
// makes whole-program invariants tractable without whole-program
// analysis, exactly as in x/tools go/analysis. Facts are stored
// gob-encoded: every import decodes a fresh copy into the caller's
// value, so no pass can alias or mutate a fact another pass exported.
//
// Fact types must be pointers to structs with exported fields, must
// implement AFact, and must be declared in the owning Analyzer's
// FactTypes list.
type Fact interface{ AFact() }

// factKey names one fact: the exporting analyzer, the package, the
// object within it (see objectKey for the object path syntax), and the
// concrete fact type. Keying by (obj, type) rather
// than by types.Object identity is what lets facts survive the
// source/export-data split: the same function seen from its own
// source and through a dependent's gc export data yields two distinct
// types.Func values but one key.
type factKey struct {
	Analyzer string
	Pkg      string
	Object   string
	Type     string
}

// factStore holds the encoded facts of one Run. Run threads a single
// store through the packages in dependency order, so a pass sees the
// facts of every dependency analyzed before it.
type factStore map[factKey][]byte

// objectKey renders the stable path of a package-level object. Facts may
// attach to package-level functions, methods, vars, types and consts;
// those cover every invariant this suite tracks, and — unlike full
// objectpath encoding — the key can be recomputed from an export-data
// view of the object without a scope walk.
func objectKey(obj types.Object) (string, error) {
	if obj == nil || obj.Pkg() == nil {
		return "", fmt.Errorf("analysis: facts require a package-level object")
	}
	if f, ok := obj.(*types.Func); ok {
		sig, _ := f.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", fmt.Errorf("analysis: no fact key for method on %s", t)
			}
			return named.Obj().Name() + "." + f.Name(), nil
		}
		return f.Name(), nil
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", fmt.Errorf("analysis: %s is not package-level; facts attach to package-level objects only", obj.Name())
	}
	return obj.Name(), nil
}

func factTypeName(fact Fact) string { return fmt.Sprintf("%T", fact) }

func (p *Pass) factDeclared(fact Fact) bool {
	name := factTypeName(fact)
	for _, ft := range p.Analyzer.FactTypes {
		if factTypeName(ft) == name {
			return true
		}
	}
	return false
}

func (p *Pass) exportFact(pkgPath, objPath string, fact Fact) {
	if p.facts == nil {
		panic(fmt.Sprintf("analysis: %s exports facts but the driver provided no fact store", p.Analyzer.Name))
	}
	if !p.factDeclared(fact) {
		panic(fmt.Sprintf("analysis: %s exports undeclared fact type %s (add it to FactTypes)", p.Analyzer.Name, factTypeName(fact)))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		panic(fmt.Sprintf("analysis: %s: fact %s does not gob-encode: %v", p.Analyzer.Name, factTypeName(fact), err))
	}
	p.facts[factKey{
		Analyzer: p.Analyzer.Name,
		Pkg:      pkgPath,
		Object:   objPath,
		Type:     factTypeName(fact),
	}] = buf.Bytes()
}

func (p *Pass) importFact(pkgPath, objPath string, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	if !p.factDeclared(fact) {
		panic(fmt.Sprintf("analysis: %s imports undeclared fact type %s (add it to FactTypes)", p.Analyzer.Name, factTypeName(fact)))
	}
	data, ok := p.facts[factKey{
		Analyzer: p.Analyzer.Name,
		Pkg:      pkgPath,
		Object:   objPath,
		Type:     factTypeName(fact),
	}]
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(fact); err != nil {
		panic(fmt.Sprintf("analysis: %s: decoding fact %s: %v", p.Analyzer.Name, factTypeName(fact), err))
	}
	return true
}

// ExportObjectFact attaches fact to a package-level object of the
// package under analysis. The fact becomes visible, via
// ImportObjectFact, to every later pass of the same analyzer over a
// package that can see obj, through the store Run shares across its
// packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	key, err := objectKey(obj)
	if err != nil {
		panic(err)
	}
	p.exportFact(obj.Pkg().Path(), key, fact)
}

// ImportObjectFact decodes the fact of the given concrete type attached
// to obj into fact, reporting whether one was found. obj may come from
// source type-checking or from export data; both resolve to the same
// fact.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, err := objectKey(obj)
	if err != nil {
		return false
	}
	return p.importFact(obj.Pkg().Path(), key, fact)
}

// An ObjectFactRef names one exported object fact without decoding it —
// enough to render "the classifiers live in service.RetryableStatus"
// style diagnostics.
type ObjectFactRef struct {
	Pkg    string
	Object string
}

// AllObjectFacts lists, sorted, every object fact of the given concrete
// type currently visible to this analyzer (facts of this package and of
// every dependency analyzed before it).
func (p *Pass) AllObjectFacts(fact Fact) []ObjectFactRef {
	if p.facts == nil {
		return nil
	}
	name := factTypeName(fact)
	var out []ObjectFactRef
	for k := range p.facts {
		if k.Analyzer == p.Analyzer.Name && k.Type == name && k.Object != "" {
			out = append(out, ObjectFactRef{Pkg: k.Pkg, Object: k.Object})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg != out[j].Pkg {
			return out[i].Pkg < out[j].Pkg
		}
		return out[i].Object < out[j].Object
	})
	return out
}
