// An indeterminate loop inside a counterfactual branch: the counterfactual's
// undo reads the journal the loop merged into it and must restore every key
// and value, in order. The same loop under an indeterminate-true branch
// merges into an ordinary frame that is marked instead.
var o = {a: 1, b: 2};
var x = 0;
if (Math.random() > 2) {
  var i = 0;
  while (i < 3 && Math.random() < 2) {
    i = i + 1;
    o["k" + i] = i;
    delete o.a;
    x = x + i;
  }
  o.a = 5;
}
var oa = o.a;
var ok1 = "k1" in o;
var vx = x;
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","), o.a, x);
var q = {a: 1, b: 2};
if (Math.random() < 2) {
  var j = 0;
  while (j < 3 && Math.random() < 2) {
    j = j + 1;
    q["k" + j] = j;
    if (j == 2) delete q.a;
    if (j == 3) q.a = j;
  }
}
var hasA = "a" in q;
var v1 = q.k1;
var qkeys = [];
for (var k2 in q) qkeys.push(k2);
console.log(qkeys.join(","), q.a, j);
