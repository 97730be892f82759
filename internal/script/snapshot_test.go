package script

import (
	"strings"
	"testing"
)

// installCOWFixture builds a small global surface with every shape the
// copy-on-write stamping must handle: nested objects, two paths to one
// object, cycles, a promise, an array holding an object, a callable
// object with statics, and an acyclic config tree for JSON.
func installCOWFixture(in *Interp) {
	g := in.Global
	root := NewObject()
	root.Class = "Root"
	child := NewObject()
	child.Set("n", Number(1))
	child.Set("name", String("child"))
	root.Set("child", ObjectValue(child))
	root.Set("alias", ObjectValue(child))
	root.Set("self", ObjectValue(root))
	child.Set("up", ObjectValue(root))
	root.Set("list", ArrayValue(Number(1), String("two"), ObjectValue(child)))
	root.Set("ready", ResolvedPromise(ObjectValue(child)))

	conf := NewObject()
	conf.Set("b", Number(2))
	conf.Set("a", String("x"))
	inner := NewObject()
	inner.Set("deep", Bool(true))
	conf.Set("inner", ObjectValue(inner))
	conf.Set("nums", ArrayValue(Number(3), Number(4)))

	ctor := NewObject()
	ctor.Call = &Native{Name: "Ctor", Fn: func(_ *Interp, _ Value, _ []Value) (Value, error) {
		return ObjectValue(NewObject()), nil
	}}
	ctor.Set("permission", String("default"))

	g.Define("root", ObjectValue(root))
	g.Define("rootAlias", ObjectValue(root))
	g.Define("child", ObjectValue(child))
	g.Define("conf", ObjectValue(conf))
	g.Define("Ctor", ObjectValue(ctor))
	g.Define("answer", Number(42))
	g.Define("greet", NativeValue("greet", func(_ *Interp, _ Value, _ []Value) (Value, error) {
		return String("hello"), nil
	}))
}

func cowSnapshot() *GlobalSnapshot {
	tmpl := NewTemplateInterp()
	installCOWFixture(tmpl)
	return tmpl.SnapshotGlobals()
}

func stamp(s *GlobalSnapshot) *Interp {
	in := NewBareInterp()
	in.InstallSnapshot(s)
	return in
}

// unshared builds the same surface on a private, never-frozen
// interpreter: the behaviour a stamped realm must reproduce.
func unshared() *Interp {
	in := NewTemplateInterp()
	installCOWFixture(in)
	return in
}

// observe runs src with an out(...) native and returns what it logged,
// either through Interp.Run or as a separately compiled program.
func observe(t *testing.T, in *Interp, src string, compiled bool) []string {
	t.Helper()
	var log []string
	in.Global.Define("out", NativeValue("out", func(_ *Interp, _ Value, args []Value) (Value, error) {
		for _, a := range args {
			log = append(log, a.ToString())
		}
		return Undefined(), nil
	}))
	var err error
	if compiled {
		var prog *Program
		var c *Compiled
		if prog, err = Parse(src); err == nil {
			if c, err = Compile(prog); err == nil {
				err = in.RunCompiled(c, "test://cow")
			}
		}
	} else {
		err = in.Run(src, "test://cow")
	}
	if err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	return log
}

func eachMode(t *testing.T, fn func(t *testing.T, compiled bool)) {
	t.Run("run", func(t *testing.T) { fn(t, false) })
	t.Run("compiled", func(t *testing.T) { fn(t, true) })
}

func TestSnapshotIsolation(t *testing.T) {
	eachMode(t, func(t *testing.T, compiled bool) {
		s := cowSnapshot()
		a, b := stamp(s), stamp(s)
		got := observe(t, a, `
		root.child.n = 99;
		root.added = 'a';
		root.list.push(4);
		root.list[0] = 'zero';
		conf.inner.deep = false;
		Ctor.permission = 'granted';
		root.ready.then(function (v) { v.planted = 1; });
		root.ready.__state = 'rejected';
		answer = 7;
		out(child.n, root.list.length, answer, root.ready.__state);
		`, compiled)
		if strings.Join(got, ",") != "99,4,7,rejected" {
			t.Errorf("writer realm does not see its own writes: %v", got)
		}
		want := "1,undefined,3,1,true,default,undefined,42,resolved"
		probe := `out(child.n, typeof root.added, root.list.length, root.list[0],
			conf.inner.deep, Ctor.permission, typeof child.planted, answer, root.ready.__state);`
		if got := strings.Join(observe(t, b, probe, compiled), ","); got != want {
			t.Errorf("realm B observed realm A's writes:\n got %s\nwant %s", got, want)
		}
		// A realm stamped after the writes comes out pristine: nothing was
		// written through to the shared snapshot.
		if got := strings.Join(observe(t, stamp(s), probe, compiled), ","); got != want {
			t.Errorf("snapshot polluted:\n got %s\nwant %s", got, want)
		}
	})
}

func TestSnapshotAliasing(t *testing.T) {
	eachMode(t, func(t *testing.T, compiled bool) {
		in := stamp(cowSnapshot())
		got := observe(t, in, `
		out(root === rootAlias, root.child === root.alias, root.child === child,
			root.self === root, child.up === root, root.list[2] === child,
			root.list === root.list, root.ready === root.ready);
		root.alias.viaAlias = 5;
		out(child.viaAlias, rootAlias.child.viaAlias);
		root.ready.then(function (v) { out(v === child); });
		out(Ctor.permission, typeof new Ctor());
		`, compiled)
		want := "true,true,true,true,true,true,true,true,5,5,true,default,object"
		if s := strings.Join(got, ","); s != want {
			t.Errorf("aliasing:\n got %s\nwant %s", s, want)
		}
	})
}

// TestSnapshotKeysAndJSON checks key order and JSON output of views
// with shadowed and added keys against an unshared copy of the same
// surface.
func TestSnapshotKeysAndJSON(t *testing.T) {
	src := `
	conf.a = 'shadowed';
	conf.z = 'added';
	conf.inner.extra = [1, 2];
	conf.nums.push(5);
	child.name = 'renamed';
	child.k = 0;
	out(Object.keys(conf).join('|'), Object.keys(child).join('|'),
		Object.keys(root).join('|'), JSON.stringify(conf),
		JSON.stringify(Object.entries(child).length));
	var copy = Object.assign({}, conf, child);
	out(Object.keys(copy).join('|'), copy.inner === conf.inner, copy.up === root);
	`
	eachMode(t, func(t *testing.T, compiled bool) {
		want := observe(t, unshared(), src, compiled)
		got := observe(t, stamp(cowSnapshot()), src, compiled)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("stamped realm diverges from an unshared copy:\n got %q\nwant %q", got, want)
		}
		if want[0] != "b|a|inner|nums|z" || want[3] != `{"a":"shadowed","b":2,"inner":{"deep":true,"extra":[1,2]},"nums":[3,4,5],"z":"added"}` {
			t.Errorf("reference output changed: %q", want)
		}
	})
}

func TestSnapshotGlobalShadowing(t *testing.T) {
	eachMode(t, func(t *testing.T, compiled bool) {
		s := cowSnapshot()
		in := stamp(s)
		got := observe(t, in, `
		out(answer, greet(), typeof child);
		var answer = 1;
		function greet() { return 'shadowed'; }
		child = 'sloppy';
		out(answer, greet(), child, typeof root);
		`, compiled)
		// Function declarations hoist, so the first greet() already
		// sees the realm's own definition.
		if s := strings.Join(got, ","); s != "42,shadowed,object,1,shadowed,sloppy,object" {
			t.Errorf("shadowing: %s", s)
		}
		if v, _ := in.Global.Get("child"); v.ToString() != "sloppy" {
			t.Errorf("host view of shadowed global: %q", v.ToString())
		}
		other := observe(t, stamp(s), `out(answer, greet(), typeof child);`, compiled)
		if s := strings.Join(other, ","); s != "42,hello,object" {
			t.Errorf("shadowing leaked into another realm: %s", s)
		}
	})
}

// TestSnapshotFrozenWritePanics: a write that reaches a frozen template
// object — from the host, or from a script handed the raw object by a
// native that captured it — must panic, not mutate every realm.
func TestSnapshotFrozenWritePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: write to a frozen object did not panic", name)
			}
		}()
		fn()
	}
	tmpl := NewTemplateInterp()
	installCOWFixture(tmpl)
	leaked, _ := tmpl.Global.Get("child")
	tmpl.Global.Define("leak", NativeValue("leak", func(_ *Interp, _ Value, _ []Value) (Value, error) {
		return leaked, nil
	}))
	s := tmpl.SnapshotGlobals()

	mustPanic("host Set", func() { leaked.Obj().Set("n", Number(2)) })
	mustPanic("script write", func() { _ = stamp(s).Run(`leak().n = 2;`, "test://cow") })
	mustPanic("Object.assign", func() { _ = stamp(s).Run(`Object.assign(leak(), {n: 3});`, "test://cow") })
	mustPanic("re-stamp", func() { stamp(s).InstallSnapshot(s) })
	mustPanic("snapshot of a stamped realm", func() { stamp(s).SnapshotGlobals() })
	if v, _ := leaked.Obj().Get("n"); v.Num() != 1 {
		t.Errorf("frozen object mutated: n = %v", v.ToString())
	}
}
