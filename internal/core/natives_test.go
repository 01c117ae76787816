package core_test

import (
	"strings"
	"testing"

	"determinacy/internal/core"
	"determinacy/internal/facts"
	"determinacy/internal/interp"
	"determinacy/internal/ir"
)

// nativeSuite exercises the standard library: each snippet runs under both
// interpreters, and both must print exactly the expected text. The two
// share one kernel per built-in, so a differential check could no longer
// catch a kernel bug; the expected text is JavaScript's answer, except where
// a comment records a mini-JS deviation.
var nativeSuite = []struct{ src, want string }{
	// Arrays.
	{`var a = [3, 1, 2]; console.log(a.shift(), a.join("+"), a.length);`, "3 1+2 2\n"},
	{`var a = [1]; a.push(2, 3); console.log(a.pop(), a.join(","));`, "3 1,2\n"},
	{`console.log([1, 2, 3].indexOf(2), [1].indexOf(9));`, "1 -1\n"},
	{`console.log([1, 2, 3, 4].slice(1, 3).join(","), [1, 2].slice(-1).join(","));`, "2,3 2\n"},
	{`console.log([1].concat([2, 3], 4).join(","));`, "1,2,3,4\n"},
	{`console.log([1, 2, 3].map(function(x) { return x * 2; }).join(","));`, "2,4,6\n"},
	{`console.log([1, 2, 3, 4].filter(function(x) { return x % 2 === 0; }).join(","));`, "2,4\n"},
	{`var s = 0; [1, 2, 3].forEach(function(x, i) { s += x * i; }); console.log(s);`, "8\n"},
	{`console.log(Array.isArray([1]), Array.isArray("no"), new Array(4).length);`, "true false 4\n"},
	{`var a = [9, 8]; a.length = 1; console.log(a.join(","), a[1]);`, "9 undefined\n"},
	// Strings.
	{`var s = "Hello World"; console.log(s.toUpperCase(), s.toLowerCase());`, "HELLO WORLD hello world\n"},
	{`console.log("abc".charAt(1), "abc".charCodeAt(2), "abc".charAt(9));`, "b 99 \n"},
	{`console.log("hay-needle-hay".indexOf("needle"), "aXa".lastIndexOf("a"));`, "4 2\n"},
	{`console.log("substring".substring(3, 6), "substring".substring(6, 3));`, "str str\n"},
	{`console.log("substr".substr(1, 3), "substr".substr(-3));`, "ubs str\n"},
	{`console.log("slice me".slice(2, 5), "slice".slice(-3));`, "ice ice\n"},
	{`console.log("a,b,c".split(",").join("|"), "abc".split("").length);`, "a|b|c 3\n"},
	{`console.log("  trim  ".trim() + "!");`, "trim!\n"},
	{`console.log("repXlace".replace("X", "_"), "no match".replace("z", "_"));`, "rep_lace no match\n"},
	{`console.log("con".concat("cat", 42), String.fromCharCode(104, 105));`, "concat42 hi\n"},
	{`console.log("str"[0], "str".length, "str"["length"]);`, "s 3 3\n"},
	// Math.
	{`console.log(Math.abs(-4), Math.floor(1.9), Math.ceil(1.1), Math.round(0.5));`, "4 1 2 1\n"},
	{`console.log(Math.pow(3, 4), Math.sqrt(144), Math.min(5, 2, 8), Math.max(5, 2, 8));`, "81 12 2 8\n"},
	{`console.log(Math.floor(Math.PI), Math.floor(Math.E));`, "3 2\n"},
	// Numbers.
	{`console.log((254).toString(16), (6.456).toFixed(1), (10).toString());`, "fe 6.5 10\n"},
	{`console.log(Number("3.5") + 1, Number(""), Number(true));`, "4.5 0 1\n"},
	{`console.log(parseInt(" 42abc"), parseInt("z"), parseFloat("2.5x"));`, "42 NaN 2.5\n"},
	{`console.log(isNaN("abc"), isNaN("42"), isFinite(1), isFinite(Infinity));`, "true false true false\n"},
	// Objects.
	{`var o = {x: 1, y: 2}; console.log(Object.keys(o).join(","), o.hasOwnProperty("x"), o.hasOwnProperty("z"));`, "x,y true false\n"},
	{`var p = Object.create({base: 9}); console.log(p.base, p.hasOwnProperty("base"));`, "9 false\n"},
	{`console.log(Object.getPrototypeOf([]) === Array.prototype);`, "true\n"},
	{`console.log(({a: 1}).toString(), [1, 2].toString());`, "[object Object] 1,2\n"},
	// Function.prototype.
	{`function who() { return this.name; } console.log(who.call({name: "n1"}), who.apply({name: "n2"}));`, "n1 n2\n"},
	{`function add3(a, b, c) { return a + b + c; } console.log(add3.apply(null, [1, 2, 3]));`, "6\n"},
	// Booleans, equality, bit ops.
	{`console.log(Boolean(0), Boolean("x"), Boolean(null));`, "false true false\n"},
	{`console.log(5 & 3, 5 | 3, 5 ^ 3, ~5, 1 << 4, -16 >> 2, -16 >>> 28);`, "1 7 6 -6 16 -4 15\n"},
	{`console.log(1 == "1", 1 === "1", null == undefined, null === undefined);`, "true false true false\n"},
	{`console.log("a" < "b", 2 <= "2", "10" < 9);`, "true true false\n"},
	// Errors.
	{`try { null.f; } catch (e) { console.log(e.name, e instanceof TypeError); }`, "TypeError true\n"},
	{`var e = new RangeError("r"); console.log(e.message, "" + e);`, "r RangeError: r\n"},
	// eval.
	{`console.log(eval("[1,2,3].length"), eval("'s' + 'tr'"));`, "3 str\n"},
	// typeof / delete / in / instanceof.
	{`console.log(typeof [], typeof {}, typeof "", typeof 0, typeof undefined, typeof null, typeof eval);`, "object object string number undefined object function\n"},
	{`var o = {k: 1}; console.log(delete o.k, "k" in o, delete o.missing);`, "true false true\n"},
	{`function C() {} var c = new C(); console.log(c instanceof C, ({}) instanceof C);`, "true false\n"},
	// Conversions with objects.
	{`console.log("" + [1, 2], "" + {}, 1 + [2], [3] * 2);`, "1,2 [object Object] 12 6\n"},
	{`console.log([1] == 1, [1, 2] == "1,2");`, "true true\n"},
	// Date (fixed instant).
	{`console.log(Date.now() === Date.now());`, "true\n"},
	// An undefined message is no message.
	{`console.log(new Error(undefined).message === "", new Error().message === "", new Error("m").message);`, "true true m\n"},
	// Plain objects convert to "[object Object]" under relational and
	// loose-equality operators.
	{`console.log(({}) < "z", ({}) <= ({}), [2] > 1, ({}) == "[object Object]", ({}) == 1);`, "true true true true false\n"},
}

// TestNativeModelsMatchConcrete checks both interpreters against the
// expected output of nativeSuite.
func TestNativeModelsMatchConcrete(t *testing.T) {
	for i, tc := range nativeSuite {
		tc := tc
		t.Run(strings.Fields(tc.src)[0]+sprintIdx(i), func(t *testing.T) {
			var cb strings.Builder
			it := interp.New(ir.MustCompile("n.js", tc.src), interp.Options{Out: &cb, Seed: 4, Now: 1000})
			if _, err := it.Run(); err != nil {
				t.Fatalf("concrete: %v\n%s", err, tc.src)
			}
			var ib strings.Builder
			a := core.New(ir.MustCompile("n.js", tc.src), facts.NewStore(), core.Options{Out: &ib, Seed: 4, Now: 1000})
			if _, err := a.Run(); err != nil {
				t.Fatalf("instrumented: %v\n%s", err, tc.src)
			}
			if cb.String() != tc.want || ib.String() != tc.want {
				t.Errorf("%s\nwant:         %q\nconcrete:     %q\ninstrumented: %q", tc.src, tc.want, cb.String(), ib.String())
			}
		})
	}
}

func sprintIdx(i int) string {
	return "_" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestNativeDeterminacyModels spot-checks the annotation side of a few
// models: determinate inputs yield determinate results; indeterminate
// receivers taint value-dependent results but not method identity.
func TestNativeDeterminacyModels(t *testing.T) {
	mod, store, _ := analyze(t, `(function(){
		var det = "abc".toUpperCase();
		var s = "" + Math.random();
		var tainted = s.charAt(0);
		var viaArr = [1, 2, Math.random()].join(",");
		var cleanArr = [1, 2, 3].join(",");
		var boxed = Math.floor([Math.random()]);
	})();`, core.Options{})
	wantCall := func(line int, det bool) {
		t.Helper()
		for _, f := range factsAtLine(t, mod, store, line, func(in ir.Instr) bool {
			_, ok := in.(*ir.Call)
			return ok
		}) {
			if f.Det != det {
				t.Errorf("line %d: det=%v, want %v (%s)", line, f.Det, det, facts.RenderFact(mod, f))
			}
		}
	}
	wantCall(2, true)  // "abc".toUpperCase() determinate
	wantCall(4, false) // charAt on indeterminate string: value tainted
	wantCall(5, false) // join over an indeterminate element
	wantCall(6, true)  // join over determinate elements
	wantCall(7, false) // a determinate array with an indeterminate element converts indeterminately
}
