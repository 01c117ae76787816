// A determinate object with indeterminate contents converts to an
// indeterminate primitive. The instrumented toNumber threw away the
// determinacy that toPrimitive computes, == ignored it as well, and the
// native models folded only their operands' own flags. So every line below
// was reported determinate; all but isNaN's (always false) differ between
// seeds.
var a = Math.floor([Math.random() * 10]);
var b = "abcdefghij".charAt([Math.random() * 10]);
var c = isNaN([Math.random()]);
var d = Number([Math.random()]);
var e = parseInt("10", [Math.random() * 30 | 0]);
var f = [Math.random() * 10 | 0] * 2;
var g = -[Math.random()];
var h = [1, 2, 3, 4].slice([Math.random() * 4 | 0]).length;
var i = [Math.random() < 0.5 ? 1 : 2] == 1;
var j = 1 != [Math.random() < 0.5 ? 1 : 2];
__observe("a", a);
__observe("b", b);
__observe("c", c);
__observe("d", d);
__observe("e", e);
__observe("f", f);
__observe("g", g);
__observe("h", h);
__observe("i", i);
__observe("j", j);
