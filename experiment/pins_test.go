package experiment_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// TestPresetsGolden pins the values of every registered experiment's
// default and preset parameter sets (TestDefaultsValidate only checks
// that they validate): one JSON line per set in testdata/presets.golden.
func TestPresetsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, d := range builtins() {
		names := []string{"default"}
		for name := range d.Presets {
			names = append(names, name)
		}
		sort.Strings(names[1:])
		for _, name := range names {
			p, err := d.PresetParams(name)
			if err != nil {
				t.Fatal(err)
			}
			j, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, name, err)
			}
			fmt.Fprintf(&out, "%s\t%s\t%s\n", d.Name, name, j)
		}
	}
	comparePinned(t, "presets.golden", out.Bytes())
}

// TestValidateGolden pins what every experiment's Validate accepts and
// what it says when it does not: a deterministic walk over the default
// parameters sets each exported numeric field to 0, -1 and (floats)
// 1e-9, and each slice field to empty and to a single 0 or -1, one
// mutation at a time. testdata/validate.golden holds one
// "experiment, mutation, ok|reject, message" line per mutation.
func TestValidateGolden(t *testing.T) {
	var out bytes.Buffer
	for _, d := range builtins() {
		for _, m := range mutations(reflect.ValueOf(d.Params()).Elem(), "") {
			p := d.Params()
			m.apply(reflect.ValueOf(p).Elem())
			verdict, msg := "ok", ""
			if err := p.Validate(); err != nil {
				verdict, msg = "reject", err.Error()
			}
			fmt.Fprintf(&out, "%s\t%s\t%s\t%s\n", d.Name, m.name, verdict, msg)
		}
	}
	comparePinned(t, "validate.golden", out.Bytes())
}

// mutation is one single-field edit of a parameter struct, addressed by
// field index path so it can be replayed on a fresh copy.
type mutation struct {
	name string
	path []int
	set  func(reflect.Value)
}

func (m mutation) apply(v reflect.Value) { m.set(v.FieldByIndex(m.path)) }

// mutations lists the edits of struct v in field order, recursing into
// nested structs.
func mutations(v reflect.Value, prefix string, path ...int) []mutation {
	var out []mutation
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		name, at := prefix+f.Name, append(path[:len(path):len(path)], i)
		add := func(label string, set func(reflect.Value)) {
			out = append(out, mutation{name + "=" + label, at, set})
		}
		switch k := f.Type.Kind(); {
		case k == reflect.Struct:
			out = append(out, mutations(v.Field(i), name+".", at...)...)
		case isNumeric(k):
			for _, x := range numericProbes(k) {
				add(fmt.Sprint(x), func(fv reflect.Value) { setNumeric(fv, x) })
			}
		case k == reflect.Slice:
			add("[]", func(fv reflect.Value) { fv.Set(reflect.MakeSlice(fv.Type(), 0, 0)) })
			if ek := f.Type.Elem().Kind(); isNumeric(ek) {
				for _, x := range []float64{0, -1} {
					add(fmt.Sprintf("[%v]", x), func(fv reflect.Value) {
						s := reflect.MakeSlice(fv.Type(), 1, 1)
						setNumeric(s.Index(0), x)
						fv.Set(s)
					})
				}
			}
		}
	}
	return out
}

func isNumeric(k reflect.Kind) bool {
	return k >= reflect.Int && k <= reflect.Int64 || k == reflect.Float32 || k == reflect.Float64
}

func numericProbes(k reflect.Kind) []float64 {
	if k == reflect.Float32 || k == reflect.Float64 {
		return []float64{0, -1, 1e-9}
	}
	return []float64{0, -1}
}

func setNumeric(v reflect.Value, x float64) {
	if v.CanFloat() {
		v.SetFloat(x)
	} else {
		v.SetInt(int64(x))
	}
}
