// Code lowered from eval at run time: the facts below include program
// points that exist only after the analysis has run each eval argument.
// A determinate string, a string built in a loop, one that depends on an
// indeterminate input, one that fails to lower, and an indirect call.
var base = 40;
var two = eval("base + 2");              // determinate: 42

function scale(k) {
	var factor = 3;
	return eval("factor * k");           // resolves through scale's scope
}
var nine = scale(3);

var sum = 0;
for (var i = 0; i < 3; i++) {
	sum = sum + eval("i * 10");          // one lowering, three runs
}

var coin = Math.random() > 0.5;
var picked = eval(coin ? "'heads'" : "'tails'");  // indeterminate string

var failed = "none";
try {
	eval("function g() {} switch (base) { case 1: base++; case 2: base--; }");
} catch (e) {
	failed = "SyntaxError";
}
var after = eval("(function (n) { return n + base; })")(2);

var indirect = eval;
var viaGlobal = indirect("base * 2");
console.log(two, nine, sum, picked === "heads" || picked === "tails", failed, after, viaGlobal);
