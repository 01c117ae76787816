var nan = 0 / 0;
var inf = 1 / 0;
var ninf = -1 / 0;
var nz = -0;
var big = 1e21;
var tiny = 1e-7;
var s = "q\"b\\s\nlt<amp&ls\u2028é☃";
var o = {a: 1, b: s};
var f = Math.floor;
function add(x, y) { return x + y; }
function twice(g, v) { return g(g(v, 1), 2); }
function sum(k) { var a = 0; for (var j = 0; j < k; j++) { a = add(a, j); } return a; }
var t = 0;
for (var i = 0; i < 3; i++) { t = t + sum(i); }
var n = twice(add, 1);
var e = eval("add(40, 2) + nz");
var r = Math.random();
var m = r < 2 ? "yes" : s;
console.log(t, n, e, f(tiny), o.a, big);
