package script

import (
	"fmt"
	"strings"
	"testing"
)

// runProbed executes src compiled against a fresh interpreter with a
// `probe(...)` native that records its arguments, and returns the
// observation log (trailing error included as a final entry).
func runProbed(t *testing.T, src string) []string {
	t.Helper()
	var log []string
	in := NewInterp()
	in.Global.Define("probe", NativeValue("probe", func(_ *Interp, _ Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.TypeOf() + ":" + a.ToString()
		}
		log = append(log, strings.Join(parts, "|"))
		return Undefined(), nil
	}))
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := in.RunCompiled(cp, "test://equiv"); err != nil {
		log = append(log, "ERR "+err.Error())
	}
	return log
}

// compileGolden is the golden corpus for the script engine: each
// source with the probe log the original tree-walking interpreter
// produced for it, recorded before the compiled engine became the only
// one. The quirks are part of the record (for-loop `var`s scoped to
// the loop, parseInt rejecting trailing garbage) and must not drift.
// Do not regenerate the wants from the engine under test.
var compileGolden = []struct {
	src  string
	want []string
}{
	// Basics, folding fodder, string ops.
	{`probe(1 + 2 * 3, "a" + "b", 10 % 3, 2 < 1, "x" < "y", 7 & 3, 7 | 8, 5 ^ 1);`, []string{"number:7|string:ab|number:1|boolean:false|boolean:true|number:3|number:15|number:4"}},
	{`probe(!0, -(-3), +"42", ~5, typeof {}, typeof missingVar);`, []string{"boolean:true|number:3|number:42|number:-6|string:object|string:undefined"}},
	{`probe(1 && 2, 0 || "fb", null ?? "d", 0 ?? "kept", true ? "y" : "n");`, []string{"number:2|string:fb|string:d|number:0|string:y"}},
	{`var x = 1; x += 2; x *= 3; probe(x); x -= 4; probe(x, x++, x, --x);`, []string{"number:9", "number:5|number:6|number:6|number:5"}},
	// Scoping: hoisting, shadowing, blocks, read-before-declare.
	{`var a = 1; { var a = 2; probe(a); } probe(a);`, []string{"number:2", "number:1"}},
	{`var a = 1; function f() { probe(a); var a = 2; probe(a); } f(); probe(a);`, []string{"number:1", "number:2", "number:1"}},
	{`var a = 1; function f() { a = 9; } f(); probe(a);`, []string{"number:9"}},
	{`function f() { b = 7; var b; probe(b); } f(); probe(typeof b);`, []string{"undefined:undefined", "string:number"}},
	{`var a = 1; { if (true) var a = 5; probe(a); } probe(a);`, []string{"number:5", "number:1"}},
	{`var a = 1; { probe(typeof a); var g = 2; if (true) var a = 5; probe(a); } probe(a);`, []string{"string:number", "number:5", "number:1"}},
	{`var i = 0; while (i < 3) { var sq = i * i; probe(sq); i = i + 1; } probe(i);`, []string{"number:0", "number:1", "number:4", "number:3"}},
	// Functions: params, arguments, defaults, recursion, closures.
	{`function add(a, b) { return a + b; } probe(add(1, 2), add(1), add(1, 2, 3));`, []string{"number:3|number:NaN|number:3"}},
	{`function f() { return arguments.length + ":" + arguments[1]; } probe(f("a", "b", "c"));`, []string{"string:3:b"}},
	{`function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } probe(fib(10));`, []string{"number:55"}},
	{`function counter() { var n = 0; return function () { n = n + 1; return n; }; }
		 var c1 = counter(); var c2 = counter(); probe(c1(), c1(), c2(), c1());`, []string{"number:1|number:2|number:1|number:3"}},
	{`var inc = function (x) { return x + 1; }; var dbl = (x) => x * 2; probe(dbl(inc(3)));`, []string{"number:8"}},
	{`function outer() { function inner() { return "in"; } return inner(); } probe(outer());`, []string{"string:in"}},
	{`probe(mutual1(4)); function mutual1(n) { return n <= 0 ? "done" : mutual2(n - 1); }
		 function mutual2(n) { return mutual1(n - 1); }`, []string{"string:done"}},
	{`function f(a, a) { return a; } probe(f(1, 2));`, []string{"number:2"}},
	{`var o = { m: function () { return this.tag; }, tag: "T" }; probe(o.m());`, []string{"string:T"}},
	{`function F(v) { this.v = v; } var o = new F(42); probe(o.v);`, []string{"number:42"}},
	// this at top level, method extraction losing this.
	{`probe(typeof this);`, []string{"string:undefined"}},
	{`var o = { tag: "t", m: function () { return typeof this; } }; var g = o.m; probe(o.m(), o["m"]());`, []string{"string:object|string:undefined"}},
	// Loops: for, do-while, nested break/continue.
	{`var s = 0; for (var i = 0; i < 5; i++) { if (i === 2) continue; s += i; } probe(s, i);`, []string{"ERR script runtime error at line 1: i is not defined"}},
	{`var s = ""; for (var i = 0; i < 10; i++) { if (i > 3) break; s += i; } probe(s);`, []string{"string:0123"}},
	{`var n = 0; do { n++; } while (n < 4); probe(n);`, []string{"number:4"}},
	{`var s = 0; for (var i = 0; i < 3; i++) for (var j = 0; j < 3; j++) { if (j === 1) continue; s += 1; } probe(s);`, []string{"number:6"}},
	{`for (var i = 0, j = 10; i < j; i++, j--) {} probe(i, j);`, []string{"ERR script runtime error at line 1: i is not defined"}},
	// Switch: match, default, fallthrough, decls in cases.
	{`switch (2) { case 1: probe("one"); case 2: probe("two"); case 3: probe("three"); break; case 4: probe("four"); }`, []string{"string:two", "string:three"}},
	{`switch ("zz") { case "a": probe("a"); break; default: probe("dflt"); }`, []string{"string:dflt"}},
	{`switch (1) { case 1: var sv = "set"; } probe(typeof sv);`, []string{"string:undefined"}},
	// try/catch/finally, throw, host errors, nesting.
	{`try { throw { code: 7 }; } catch (e) { probe(e.code); } finally { probe("fin"); }`, []string{"number:7", "string:fin"}},
	{`try { nope.prop; } catch (e) { probe(e.message); }`, []string{"string:nope is not defined"}},
	{`try { probe("ok"); } catch (e) { probe("never"); } probe("after");`, []string{"string:ok", "string:after"}},
	{`function f() { try { return "t"; } finally { probe("fin"); } } probe(f());`, []string{"string:fin", "string:t"}},
	{`try { try { throw "inner"; } finally { probe("f1"); } } catch (e) { probe(e); }`, []string{"string:f1", "string:inner"}},
	{`try { undefinedFn(); } catch (e) { probe(e.message); }`, []string{"string:undefinedFn is not defined"}},
	// Objects, arrays, members, computed access, compound member ops.
	{`var o = { a: 1, b: { c: 2 } }; o.b.d = o.a + o.b.c; probe(o.b.d, JSON.stringify(o));`, []string{"number:3|string:{\"a\":1,\"b\":{\"c\":2,\"d\":3}}"}},
	{`var a = [1, 2, 3]; a.push(4); a[0] = a[1] + a[3]; probe(a.join(","), a.length);`, []string{"string:6,2,3,4|number:4"}},
	{`var a = [5]; a[-1] = "neg"; a[1.5] = "frac"; probe(a[-1], a[1.5], a.length, JSON.stringify(a));`, []string{"string:neg|string:frac|number:1|string:[5]"}},
	{`var i = 0; var a = [10, 20, 30]; a[i++] += 5; probe(i, a.join(","));`, []string{"number:1|string:10,25,30"}},
	{`var o = {}; var k = "dyn"; o[k] = 1; o[k] += 2; probe(o.dyn);`, []string{"number:3"}},
	{`var a = [1, 2, 3]; probe(a.map(function (x) { return x * 2; }).join(","), a.filter(function (x) { return x > 1; }).length);`, []string{"string:2,4,6|number:2"}},
	{`var s = 0; [1, 2, 3].forEach(function (v, i) { s += v * i; }); probe(s);`, []string{"number:8"}},
	{`var out = []; for (var i = 0; i < 3; i++) { out.push((function (n) { return function () { return n; }; })(i)); } probe(out[0](), out[1](), out[2]());`, []string{"number:0|number:1|number:2"}},
	// Spread, optional chaining/calls, apply/call/bind.
	{`function sum(a, b, c) { return a + b + c; } var args = [1, 2, 3]; probe(sum.apply(null, args), sum(...args));`, []string{"number:6|number:6"}},
	{`var o = null; probe(o?.x, o?.m?.(), typeof o?.a?.b);`, []string{"undefined:undefined|undefined:undefined|string:undefined"}},
	{`function greet(g, n) { return g + " " + n + " from " + (this && this.tag); }
		 probe(greet.call({ tag: "c" }, "hi", "x"), greet.bind({ tag: "b" }, "yo")("z"));`, []string{"string:hi x from c|string:yo z from b"}},
	// Builtins: Math (deterministic LCG), JSON, parseInt, Object.
	{`probe(Math.floor(3.7), Math.max(1, 9, 4), Math.abs(-2), parseInt("12px"), parseFloat("3.5rem"));`, []string{"number:3|number:9|number:2|number:NaN|number:NaN"}},
	{`probe(Math.random() === Math.random());`, []string{"boolean:false"}},
	{`probe(JSON.stringify({ b: 2, a: [1, "x", null] }), Object.keys({ x: 1, y: 2 }).join(","));`, []string{"string:{\"a\":[1,\"x\",null],\"b\":2}|string:x,y"}},
	{`var e = new Error("boom"); probe(e.message, typeof e.stack);`, []string{"string:boom|string:string"}},
	// Promises + setTimeout (synchronous in this interpreter).
	{`Promise.resolve(5).then(function (v) { probe("then", v); }); probe("after");`, []string{"string:then|number:5", "string:after"}},
	{`setTimeout(function () { probe("timer"); }, 0); probe("sync");`, []string{"string:timer", "string:sync"}},
	// Errors escaping to the top level keep line/message parity.
	{`var x = 1;
		 probe("before");
		 x.missing.deeper;`, []string{"string:before", "ERR script runtime error at line 3: cannot read properties of undefined (reading \"deeper\")"}},
	{`probe("a"); ({}).nope();`, []string{"string:a", "ERR script runtime error at line 1: nope is not a function"}},
	{`probe(1 in { 1: "x" }, "k" in { k: 1 }, "k" in {});`, []string{"boolean:true|boolean:true|boolean:false"}},
	// Sequence/comma operator, template strings, ternary chains.
	{`var x = (probe("first"), 2); probe(x);`, []string{"string:first", "number:2"}},
	{"var who = 'w'; probe(`hello ${who} ${1 + 1}`);", []string{"string:hello w 2"}},
	{`var v = 5; probe(v < 3 ? "lo" : v < 7 ? "mid" : "hi");`, []string{"string:mid"}},
	// Update on member/index single-evaluation.
	{`var calls = 0; function idx() { calls++; return 0; } var a = [10]; a[idx()]++; probe(calls, a[0]);`, []string{"number:1|number:11"}},
	{`var calls = 0; function base() { calls++; return o; } var o = { n: 1 }; base().n += 4; probe(calls, o.n);`, []string{"number:1|number:5"}},
}

// TestCompileEquivalence runs the golden corpus through the compiled
// engine and requires the recorded observable behavior: same probe
// calls in the same order with the same values, same final error.
func TestCompileEquivalence(t *testing.T) {
	for i, c := range compileGolden {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			if len(c.want) == 0 {
				t.Fatal("golden case records no observations")
			}
			if got := runProbed(t, c.src); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("diverges from golden for:\n%s\ngot:  %q\nwant: %q", c.src, got, c.want)
			}
		})
	}
}

// TestCompileEquivalenceBudget checks a compiled runaway loop still
// exhausts the step budget.
func TestCompileEquivalenceBudget(t *testing.T) {
	prog, err := Parse(`while (true) { var x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.MaxSteps = 5000
	if err := in.RunCompiled(cp, "test://budget"); err != ErrBudget {
		t.Fatalf("compiled runaway loop: got %v, want ErrBudget", err)
	}
}

// TestCompileEquivalenceRecursionCap checks compiled infinite recursion
// hits the call-stack cap rather than overflowing the Go stack.
func TestCompileEquivalenceRecursionCap(t *testing.T) {
	log := runProbed(t, `function f() { return f(); } f();`)
	want := "ERR script runtime error at line 1: maximum call stack size exceeded"
	if len(log) != 1 || log[0] != want {
		t.Fatalf("got %q, want [%q]", log, want)
	}
}

// TestCompiledSharedAcrossInterps runs one compiled program in several
// interpreters and checks the runs stay independent (no shared frames
// or globals leaking through the immutable compiled form).
func TestCompiledSharedAcrossInterps(t *testing.T) {
	prog, err := Parse(`var n = (typeof seed === "number") ? seed : -1;
		function bump() { n += 1; return n; }
		bump(); bump();`)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		in := NewInterp()
		in.Global.Define("seed", Number(float64(seed*100)))
		if err := in.RunCompiled(cp, "test://shared"); err != nil {
			t.Fatal(err)
		}
		v, _ := in.Global.Get("n")
		if want := float64(seed*100 + 2); v.Num() != want {
			t.Fatalf("seed %d: n = %v, want %v", seed, v.Num(), want)
		}
	}
}

func TestCompileCache(t *testing.T) {
	pc := NewParseCache()
	cc := NewBoundedCompileCache(0, pc.Parse)
	src := `var x = 1 + 2;`
	a, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same source should share one compiled program")
	}
	if _, err := cc.Compile(`var broken = ;`); err == nil {
		t.Fatal("want parse error through compile cache")
	}
	st := cc.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 2 entries", st)
	}
	if ps := pc.Stats(); ps.Misses != 2 {
		t.Fatalf("layered parse cache misses = %d, want 2", ps.Misses)
	}
}
