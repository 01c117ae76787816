// An indeterminate loop inside a determinate loop is reentrant, so its
// continuation frames are ordinary (non-loop) frames that taint occurrence
// counting at once.
var o = {};
var total = 0;
for (var j = 0; j < 3; j++) {
  var i = 0;
  while (i < 2 + j && Math.random() < 2) {
    i = i + 1;
    o["x" + j + "_" + i] = i;
    total = total + i;
  }
  var seen = i;
}
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","), total);
function f(n) {
  var r = {};
  var c = 0;
  while (c < n && Math.random() < 2) {
    c = c + 1;
    r["p" + c] = c;
    if (c == 2) delete r.p1;
  }
  return r;
}
for (var t = 0; t < 2; t++) {
  var res = f(3);
  var rk = [];
  for (var k3 in res) rk.push(k3);
  console.log(rk.join(","));
}
