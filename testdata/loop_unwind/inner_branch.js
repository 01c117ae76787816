// Indeterminate branches inside an indeterminate loop whose bodies rewrite
// locations an earlier iteration already wrote: an indeterminate-true if
// writes, deletes and re-adds p and s and writes v; an indeterminate-false
// if (run counterfactually) does the same to q and w and deletes r. From
// the second iteration on, the loop's journal already holds a record for
// each of these locations, so folding an inner branch's journal into it
// drops the inner records; the state the loop leaves must not change.
var o = {p: 0, q: 0, r: 0};
var v = 0;
var w = 0;
var i = 0;
while (i < 4 && Math.random() < 2) {
  i = i + 1;
  o.p = i;
  v = v + i;
  w = w + 1;
  o["n" + i] = i;
  if (Math.random() < 2) {
    o.p = i * 10;
    delete o.p;
    o.p = i * 100;
    v = v * 2;
    if (i > 1) delete o.s;
    if (i < 4) o.s = i;
    if (i == 3) delete o.n1;
  }
  if (Math.random() > 2) {
    o.q = i;
    delete o.q;
    o.q = i + 1;
    w = w * 3;
    delete o.r;
    delete o.n2;
    o.n2 = w;
  }
  o.q = o.q + 1;
}
var hasP = "p" in o;
var hasQ = "q" in o;
var hasR = "r" in o;
var hasS = "s" in o;
var hasN1 = "n1" in o;
var hasN2 = "n2" in o;
var vp = o.p;
var vq = o.q;
var vs = o.s;
var keys = [];
for (var k in o) keys.push(k + "=" + o[k]);
console.log(keys.join(","), v, w, i);
