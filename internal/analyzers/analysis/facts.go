package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"sort"
)

// A Fact is a serializable datum an analyzer attaches to a package-level
// object in one compilation unit and consumes in another — the
// mechanism that makes whole-program invariants tractable without
// whole-program analysis, exactly as in x/tools go/analysis. Facts are
// gob-encoded at export time in every mode, so a fact type that cannot
// round-trip fails fast in source mode too, not only under
// `go vet -vettool`.
//
// Fact types must be pointers to structs with exported fields, must
// implement AFact, and must be declared in the owning Analyzer's
// FactTypes list.
type Fact interface{ AFact() }

// factKey names one fact: the exporting analyzer, the package, the
// object within it (see objectKey for the object path syntax), and the
// concrete fact type. Keying by (obj, type) rather
// than by types.Object identity is what lets facts survive the
// source-mode/export-data split: the same function seen from its own
// source and through a dependent's gc export data yields two distinct
// types.Func values but one key.
type factKey struct {
	Analyzer string
	Pkg      string
	Object   string
	Type     string
}

// factEntry is the serialized form of one fact, ordered for
// deterministic vetx bytes.
type factEntry struct {
	Key  factKey
	Data []byte
}

// A FactSet holds encoded facts, keyed per analyzer. It is the unit of
// exchange between compilation units: the source-mode driver threads one
// FactSet through packages in dependency order, and the vettool driver
// decodes the dependencies' .vetx files into one and encodes the
// cumulative result into this unit's .vetx output.
type FactSet struct {
	m map[factKey][]byte
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet { return &FactSet{m: make(map[factKey][]byte)} }

// Merge folds other's facts into s (other wins on duplicate keys; facts
// are content-addressed by object, so duplicates are re-exports of the
// same datum).
func (s *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	//lint:allow mapiter map-to-map copy keyed by factKey is order-independent; Encode sorts before serializing
	for k, v := range other.m {
		s.m[k] = v
	}
}

// Len reports the number of facts in the set.
func (s *FactSet) Len() int { return len(s.m) }

// vetxMagic versions the .vetx encoding; go vet only requires the file
// to exist, so the format is entirely ours.
const vetxMagic = "amdahl-lint facts v1\n"

// Encode serializes the set. The entry list is sorted so identical fact
// sets always produce identical bytes (vetx files feed build-cache
// hashing; nondeterministic bytes would cause spurious re-analysis).
func (s *FactSet) Encode() ([]byte, error) {
	entries := make([]factEntry, 0, len(s.m))
	for k, v := range s.m {
		entries = append(entries, factEntry{Key: k, Data: v})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Key, entries[j].Key
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	var buf bytes.Buffer
	buf.WriteString(vetxMagic)
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts reverses Encode. Empty input decodes to an empty set, so
// the zero-length stamp files written by pre-facts builds of amdahl-lint
// remain readable.
func DecodeFacts(data []byte) (*FactSet, error) {
	s := NewFactSet()
	if len(data) == 0 {
		return s, nil
	}
	rest, ok := bytes.CutPrefix(data, []byte(vetxMagic))
	if !ok {
		return nil, fmt.Errorf("analysis: not an amdahl-lint facts file")
	}
	var entries []factEntry
	if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("analysis: decoding facts: %v", err)
	}
	for _, e := range entries {
		s.m[e.Key] = e.Data
	}
	return s, nil
}

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
	p.facts.m[factKey{
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
	data, ok := p.facts.m[factKey{
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
// package that can see obj — in source mode through the shared run
// store, in vettool mode through the .vetx files.
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
	for k := range p.facts.m {
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
