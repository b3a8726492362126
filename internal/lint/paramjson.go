package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// paramJSON keeps the experiment-registry contract honest: every
// registered parameter set round-trips through encoding/json (the CLI's
// -params file.json and -format json envelope) and validates itself
// before running. By convention registered parameter sets are structs
// named *Params; for each one it requires:
//
//   - a Validate() error method (on the type or its pointer), and
//   - every exported field to be JSON-round-trippable: basics, strings,
//     time.Duration, slices/arrays/maps/pointers of such, structs of
//     such, or named types implementing both halves of a json.Marshaler
//     or encoding.TextMarshaler pair. Func, chan, complex,
//     unsafe.Pointer, and bare interface fields must be tagged
//     json:"-"; one-way marshalers (Marshal without Unmarshal, or vice
//     versa) are reported.
func paramJSON(pass *pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Params") || ts.Assign.IsValid() {
					continue
				}
				tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				checkParamsStruct(pass, ts, named, st)
			}
		}
	}
}

func checkParamsStruct(pass *pass, ts *ast.TypeSpec, named *types.Named, st *types.Struct) {
	if !hasValidateMethod(named) {
		pass.reportf(ts.Pos(),
			"params struct %s has no Validate() error method; the registry validates every parameter set before running",
			ts.Name.Name)
	}
	structAST, _ := ts.Type.(*ast.StructType)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue // encoding/json ignores unexported fields
		}
		tag := reflect.StructTag(st.Tag(i))
		if name, _, _ := strings.Cut(tag.Get("json"), ","); name == "-" {
			continue
		}
		if why := jsonRoundTripIssue(f.Type(), make(map[types.Type]bool)); why != "" {
			pos := ts.Pos()
			if structAST != nil {
				pos = fieldPos(structAST, f.Name())
			}
			pass.reportf(pos,
				"field %s of params struct %s does not JSON-round-trip (%s); tag it json:\"-\" or use a serializable representation",
				f.Name(), ts.Name.Name, why)
		}
	}
}

func fieldPos(st *ast.StructType, name string) token.Pos {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				return id.Pos()
			}
		}
		if len(f.Names) == 0 && embeddedFieldName(f.Type) == name {
			return f.Pos()
		}
	}
	return st.Pos()
}

// hasValidateMethod reports whether *T has a Validate() error method.
func hasValidateMethod(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != "Validate" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return false
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	return false
}

// jsonRoundTripIssue returns "" if t round-trips through encoding/json,
// or a short reason why it cannot.
func jsonRoundTripIssue(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	t = types.Unalias(t)

	if named, ok := t.(*types.Named); ok {
		hasMarshalJSON := hasMethod(named, "MarshalJSON")
		hasUnmarshalJSON := hasMethod(named, "UnmarshalJSON")
		hasMarshalText := hasMethod(named, "MarshalText")
		hasUnmarshalText := hasMethod(named, "UnmarshalText")
		switch {
		case (hasMarshalJSON && hasUnmarshalJSON) || (hasMarshalText && hasUnmarshalText):
			return ""
		case hasMarshalJSON || hasMarshalText:
			return fmt.Sprintf("%s marshals but has no matching unmarshal method", named.Obj().Name())
		case hasUnmarshalJSON || hasUnmarshalText:
			return fmt.Sprintf("%s unmarshals but has no matching marshal method", named.Obj().Name())
		}
	}

	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsComplex != 0:
			return "complex number"
		case u.Kind() == types.UnsafePointer:
			return "unsafe.Pointer"
		case u.Info()&(types.IsBoolean|types.IsInteger|types.IsFloat|types.IsString) != 0:
			return ""
		default:
			return u.String()
		}
	case *types.Pointer:
		return jsonRoundTripIssue(u.Elem(), seen)
	case *types.Slice:
		return jsonRoundTripIssue(u.Elem(), seen)
	case *types.Array:
		return jsonRoundTripIssue(u.Elem(), seen)
	case *types.Map:
		if why := jsonMapKeyIssue(u.Key()); why != "" {
			return why
		}
		return jsonRoundTripIssue(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			tag := reflect.StructTag(u.Tag(i))
			if name, _, _ := strings.Cut(tag.Get("json"), ","); name == "-" {
				continue
			}
			if why := jsonRoundTripIssue(f.Type(), seen); why != "" {
				return fmt.Sprintf("field %s: %s", f.Name(), why)
			}
		}
		return ""
	case *types.Signature:
		return "func field"
	case *types.Chan:
		return "chan field"
	case *types.Interface:
		return "interface field (dynamic type is lost on unmarshal)"
	default:
		return t.String()
	}
}

func jsonMapKeyIssue(k types.Type) string {
	k = types.Unalias(k)
	if named, ok := k.(*types.Named); ok {
		if hasMethod(named, "MarshalText") && hasMethod(named, "UnmarshalText") {
			return ""
		}
	}
	if b, ok := k.Underlying().(*types.Basic); ok {
		if b.Info()&(types.IsString|types.IsInteger) != 0 {
			return ""
		}
	}
	return fmt.Sprintf("map key %s is not string/integer/TextMarshaler", k.String())
}

func hasMethod(named *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}
