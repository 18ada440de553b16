// Package adopttest holds the property the adopting constructors are
// tested against: a value built on a retired instance's storage is, field
// for field, the value built on none.
package adopttest

import (
	"fmt"
	"math"
	"reflect"
)

// Diff walks a value built without a donor and one built with, unexported
// fields, pointers, interfaces and RNG state included, and returns the
// path and nature of the first difference, or "" when there is none.
//
// Retained-but-empty storage is the one thing allowed to differ: a nil
// slice equals an empty one, and where the fresh side has an empty slice
// the adopted side may hold spare buffers (a free list, an arena's
// chunks) — but then, as in the spare capacity behind every adopted
// slice, everything reachable there must be the zero value. Nothing the
// donor stored may be left anywhere.
func Diff(fresh, adopted any) string {
	w := walker{seen: map[[2]uintptr]bool{}}
	return w.diff("", reflect.ValueOf(fresh), reflect.ValueOf(adopted))
}

type walker struct {
	seen map[[2]uintptr]bool // pointer pairs already compared (cycles)
}

func (w *walker) diff(path string, f, a reflect.Value) string {
	if f.IsValid() != a.IsValid() {
		return fmt.Sprintf("%s: one side is absent", path)
	}
	if !f.IsValid() {
		return ""
	}
	if f.Type() != a.Type() {
		return fmt.Sprintf("%s: type %v, adopted %v", path, f.Type(), a.Type())
	}
	switch f.Kind() {
	case reflect.Pointer:
		if f.IsNil() || a.IsNil() {
			if f.IsNil() != a.IsNil() {
				return fmt.Sprintf("%s: nil on one side only", path)
			}
			return ""
		}
		key := [2]uintptr{f.Pointer(), a.Pointer()}
		if w.seen[key] {
			return ""
		}
		w.seen[key] = true
		return w.diff(path, f.Elem(), a.Elem())
	case reflect.Interface:
		if f.IsNil() || a.IsNil() {
			if f.IsNil() != a.IsNil() {
				return fmt.Sprintf("%s: nil on one side only", path)
			}
			return ""
		}
		return w.diff(path, f.Elem(), a.Elem())
	case reflect.Struct:
		for i := 0; i < f.NumField(); i++ {
			if d := w.diff(path+"."+f.Type().Field(i).Name, f.Field(i), a.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Array:
		for i := 0; i < f.Len(); i++ {
			if d := w.diff(fmt.Sprintf("%s[%d]", path, i), f.Index(i), a.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if spare := a.Slice(a.Len(), a.Cap()); !vacant(spare) {
			return fmt.Sprintf("%s: spare capacity [%d:%d] of the adopted slice is not zero", path, a.Len(), a.Cap())
		}
		if f.Len() == 0 && a.Len() > 0 {
			if !vacant(a) {
				return fmt.Sprintf("%s: empty when fresh, adopted holds %d elements that are not all zero", path, a.Len())
			}
			return ""
		}
		if f.Len() != a.Len() {
			return fmt.Sprintf("%s: len %d, adopted %d", path, f.Len(), a.Len())
		}
		for i := 0; i < f.Len(); i++ {
			if d := w.diff(fmt.Sprintf("%s[%d]", path, i), f.Index(i), a.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if f.Len() != a.Len() {
			return fmt.Sprintf("%s: %d keys, adopted %d", path, f.Len(), a.Len())
		}
		for it := f.MapRange(); it.Next(); {
			if d := w.diff(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), a.MapIndex(it.Key())); d != "" {
				return d
			}
		}
		return ""
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if f.IsNil() != a.IsNil() {
			return fmt.Sprintf("%s: nil on one side only", path)
		}
		return ""
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(f.Float()) != math.Float64bits(a.Float()) {
			return fmt.Sprintf("%s: %v, adopted %v", path, f.Float(), a.Float())
		}
		return ""
	default:
		// Bool, integers, complex, string: comparable by value.
		if !f.Equal(a) {
			return fmt.Sprintf("%s: %v, adopted %v", path, f, a)
		}
		return ""
	}
}

// vacant reports whether v holds nothing: zero scalars, nil references,
// and slices that are zero through their whole capacity.
func vacant(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			if !vacant(all.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !vacant(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !vacant(v.Field(i)) {
				return false
			}
		}
		return true
	default:
		return v.IsZero()
	}
}
