package results

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// DiffClass classifies the difference between two records.
type DiffClass int

const (
	// Identical: the canonical bytes match — nothing changed.
	Identical DiffClass = iota
	// Changed: the records are comparable and at least one payload value
	// moved. Every experiment is deterministic, so there is no tolerance:
	// a reference cycle off by one, or two samples swapped by a shard
	// placed at the wrong index, is as much a change as a flipped cell.
	Changed
	// Incomparable: the records cannot be diffed (different experiments,
	// parameters or schema versions). Gating treats this as a failure:
	// a baseline whose parameters silently changed is not a baseline.
	Incomparable
)

// String implements fmt.Stringer.
func (c DiffClass) String() string {
	switch c {
	case Identical:
		return "identical"
	case Changed:
		return "changed"
	case Incomparable:
		return "incomparable"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// maxFindings caps a report's findings; one closing line counts the rest.
const maxFindings = 20

// DiffReport is the comparison of two records of the same experiment.
type DiffReport struct {
	Experiment string    `json:"experiment"`
	Class      DiffClass `json:"class"`
	// Findings are "path: old → new" lines, one per moved value, or the
	// reason the records are incomparable.
	Findings []string `json:"findings,omitempty"`
}

// Format renders the report for terminals: one header line plus one line
// per finding.
func (d *DiffReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %s\n", d.Experiment, strings.ToUpper(d.Class.String()))
	for _, f := range d.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Diff compares an old record against a new one. Worker counts, git
// revisions and the rest of Meta never matter: records of the same
// experiment at the same parameters are Identical exactly when their
// canonical bytes are equal, however they were produced. Otherwise the
// report names each moved value by its path in the canonical document,
// for example
//
//	table1.cells[14]{gadget=G_NPEU,ordering=VD-AD,scheme=unsafe}.ref_cycle: 231 → 230
//
// where an array element that is an object is labelled by its string
// fields.
func Diff(old, new *Record) *DiffReport {
	d := &DiffReport{Experiment: old.Experiment}
	incomparable := func(format string, args ...any) *DiffReport {
		d.Class = Incomparable
		d.Findings = []string{fmt.Sprintf(format, args...)}
		return d
	}
	switch {
	case old.Experiment != new.Experiment:
		d.Experiment = old.Experiment + "→" + new.Experiment
		return incomparable("different experiments: %s vs %s", old.Experiment, new.Experiment)
	case old.Schema != new.Schema:
		return incomparable("schema version changed: %d vs %d", old.Schema, new.Schema)
	case old.Params.Signature() != new.Params.Signature():
		return incomparable("parameters differ: %+v vs %+v", old.Params, new.Params)
	}
	// Compare the canonical bytes, not the stored hashes: a record whose
	// hash field is absent (a hand-edited fixture) must still diff as
	// identical against a byte-identical payload.
	oldJSON, oldErr := old.CanonicalJSON()
	newJSON, newErr := new.CanonicalJSON()
	if err := cmp.Or(oldErr, newErr); err != nil {
		return incomparable("canonical encoding failed: %v", err)
	}
	if bytes.Equal(oldJSON, newJSON) {
		return d
	}
	d.Class = Changed
	walk(&d.Findings, "", decode(oldJSON), decode(newJSON))
	if n := len(d.Findings) - maxFindings; n > 0 {
		d.Findings = append(d.Findings[:maxFindings], fmt.Sprintf("… and %d more", n))
	}
	return d
}

// decode parses canonical bytes with every number kept as stored, so
// findings print floats exactly as the signature covers them.
func decode(b []byte) any {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		panic("results: canonical JSON does not parse: " + err.Error()) // json.Marshal output always parses
	}
	return doc
}

// walk appends one "path: old → new" finding to out per value that moved
// from a to b: objects key by key in sorted order, arrays index by index
// and then by length, anything else by value.
func walk(out *[]string, path string, a, b any) {
	moved := func(path, old, new string) { *out = append(*out, path+": "+old+" → "+new) }
	switch a := a.(type) {
	case map[string]any:
		if b, ok := b.(map[string]any); ok {
			for _, k := range keys(a, b) {
				p := strings.TrimPrefix(path+"."+k, ".")
				av, inA := a[k]
				bv, inB := b[k]
				if inA && inB {
					walk(out, p, av, bv)
				} else {
					moved(p, show(av, inA), show(bv, inB))
				}
			}
			return
		}
	case []any:
		if b, ok := b.([]any); ok {
			for i := range min(len(a), len(b)) {
				walk(out, fmt.Sprintf("%s[%d]%s", path, i, label(a[i])), a[i], b[i])
			}
			if len(a) != len(b) {
				moved("len("+path+")", fmt.Sprint(len(a)), fmt.Sprint(len(b)))
			}
			return
		}
	}
	// Leaves are json.Number, string, bool or nil, all comparable; a leaf
	// against an object or array compares unequal by type.
	if a != b {
		moved(path, show(a, true), show(b, true))
	}
}

// show renders a decoded value as JSON, or "absent" for a missing key.
func show(v any, present bool) string {
	if !present {
		return "absent"
	}
	b, _ := json.Marshal(v) // decoded values always marshal
	return string(b)
}

// label names an array element that is an object by its string fields in
// key order, e.g. {gadget=G_NPEU,ordering=VD-AD,scheme=unsafe}; any other
// element gets no label.
func label(v any) string {
	obj, ok := v.(map[string]any)
	if !ok {
		return ""
	}
	var fields []string
	for _, k := range keys(obj) {
		if s, ok := obj[k].(string); ok {
			fields = append(fields, k+"="+s)
		}
	}
	if len(fields) == 0 {
		return ""
	}
	return "{" + strings.Join(fields, ",") + "}"
}

// keys returns the union of the objects' keys, sorted.
func keys(objs ...map[string]any) []string {
	var ks []string
	for _, obj := range objs {
		for k := range obj {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return slices.Compact(ks)
}
