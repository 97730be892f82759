package script

import (
	"sort"
	"sync"
)

// Copy-on-write realm globals: embedders that install a large host
// surface (the webapi realm defines dozens of namespace objects and
// hundreds of natives) build it ONCE on a template interpreter and
// freeze it into a GlobalSnapshot. Stamping the snapshot into a realm
// only attaches it to the realm's global scope; nothing is copied.
//
//   - Global names resolve through the snapshot until a var, function
//     declaration or sloppy assignment defines them in the realm.
//   - A frozen object reached from a realm appears as a per-realm view:
//     reads fall through to the frozen base, writes land in the view's
//     private overlay. Views are memoised per frozen object, so aliasing
//     within the snapshot survives (window === self === globalThis).
//   - A frozen array is copied into the realm on first reach, because
//     Array.Elems is a public field that natives mutate in place.
//
// Natives and closures are shared as-is: host functions recover
// per-realm state through Interp.Host at call time. Writing to a frozen
// object panics, so a native that leaks a template object into a realm
// fails loudly instead of mutating every realm at once.

// GlobalSnapshot is a frozen capture of a template interpreter's global
// bindings, shared read-only by every realm it is stamped into.
type GlobalSnapshot struct {
	vars map[string]Value
}

// realmViews is one realm's window onto a snapshot: the snapshot its
// global scope falls back to, and the realm's memoised view of every
// frozen object and array it has reached.
type realmViews struct {
	snap *GlobalSnapshot
	objs map[*Object]*Object
	arrs map[*Array]*Array
}

// NewBareInterp creates an interpreter with an empty global scope — no
// builtins. Pair with InstallSnapshot to stamp a prebuilt surface.
func NewBareInterp() *Interp {
	return &Interp{Global: newGlobalEnv(), MaxSteps: 200000, rng: 0x9E3779B97F4A7C15}
}

// NewTemplateInterp creates an interpreter with the standard builtins
// freshly installed rather than stamped, ready to have a host surface
// built on it and captured with SnapshotGlobals.
func NewTemplateInterp() *Interp {
	in := NewBareInterp()
	in.installBuiltins()
	return in
}

// SnapshotGlobals freezes the interpreter's global object graph and
// captures its bindings. Take it only once the template's surface is
// fully built: every object reachable from a global becomes read-only,
// and a later write to one panics. The template must not itself be a
// stamped realm.
func (in *Interp) SnapshotGlobals() *GlobalSnapshot {
	if in.Global.views != nil {
		panic("script: SnapshotGlobals on a stamped realm; build templates with NewTemplateInterp")
	}
	s := &GlobalSnapshot{vars: make(map[string]Value, len(in.Global.vars))}
	for name, v := range in.Global.vars {
		freeze(v)
		s.vars[name] = v
	}
	return s
}

// freeze marks every object and array reachable from v read-only.
func freeze(v Value) {
	switch v.kind {
	case KindObject:
		o := v.obj
		if o.frozen {
			return
		}
		if o.base != nil {
			panic("script: cannot freeze a realm view")
		}
		o.frozen = true
		for _, pv := range o.props {
			freeze(pv)
		}
	case KindArray:
		a := v.arr
		if a.frozen {
			return
		}
		a.frozen = true
		for _, e := range a.Elems {
			freeze(e)
		}
		for _, pv := range a.Props {
			freeze(pv)
		}
	}
}

// Names returns the snapshot's global names, sorted.
func (s *GlobalSnapshot) Names() []string {
	names := make([]string, 0, len(s.vars))
	for name := range s.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// InstallSnapshot stamps the snapshot into the interpreter's global
// scope. It copies nothing: bindings resolve through the snapshot until
// the realm shadows them, and frozen objects become per-realm views on
// first reach. An interpreter takes at most one snapshot.
func (in *Interp) InstallSnapshot(s *GlobalSnapshot) {
	if in.Global.views != nil {
		panic("script: InstallSnapshot called twice")
	}
	in.views.snap = s
	in.Global.views = &in.views
}

// lookup resolves a global name through the snapshot.
func (rv *realmViews) lookup(name string) (Value, bool) {
	v, ok := rv.snap.vars[name]
	if !ok {
		return Value{}, false
	}
	return rv.lift(v), true
}

// lift maps a value read out of the frozen graph to its realm-local
// counterpart. Everything that is not a frozen object or array passes
// through unchanged.
func (rv *realmViews) lift(v Value) Value {
	switch {
	case v.kind == KindObject && v.obj.frozen:
		return ObjectValue(rv.view(v.obj))
	case v.kind == KindArray && v.arr.frozen:
		return Value{kind: KindArray, arr: rv.copyArray(v.arr)}
	}
	return v
}

func (rv *realmViews) view(base *Object) *Object {
	if o, ok := rv.objs[base]; ok {
		return o
	}
	if rv.objs == nil {
		rv.objs = map[*Object]*Object{}
	}
	o := &Object{Class: base.Class, Call: base.Call, base: base, views: rv}
	rv.objs[base] = o
	return o
}

func (rv *realmViews) copyArray(base *Array) *Array {
	if a, ok := rv.arrs[base]; ok {
		return a
	}
	if rv.arrs == nil {
		rv.arrs = map[*Array]*Array{}
	}
	a := &Array{}
	rv.arrs[base] = a // register before recursing: cycles and aliases hit it
	if base.Elems != nil {
		a.Elems = make([]Value, len(base.Elems))
		for i, e := range base.Elems {
			a.Elems[i] = rv.lift(e)
		}
	}
	if base.Props != nil {
		a.Props = make(map[string]Value, len(base.Props))
		for k, pv := range base.Props {
			a.Props[k] = rv.lift(pv)
		}
	}
	return a
}

// builtinsSnap lazily captures the standard builtins from a throwaway
// template, so NewInterp stamps them instead of rebuilding every native
// on each call.
var (
	builtinsOnce sync.Once
	builtinsSnap *GlobalSnapshot
)

func builtinsSnapshot() *GlobalSnapshot {
	builtinsOnce.Do(func() {
		builtinsSnap = NewTemplateInterp().SnapshotGlobals()
	})
	return builtinsSnap
}
