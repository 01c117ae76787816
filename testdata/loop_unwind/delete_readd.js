// A property deleted in iteration k and re-added in iteration k+1, and one
// deleted in iteration 2 and re-added two iterations later, so the key order
// the journal must reproduce differs from the literal's.
var o = {a: 1, b: 2, c: 3, d: 4};
var i = 0;
while (i < 5 && Math.random() < 2) {
  i = i + 1;
  if (i == 2) delete o.b;
  if (i == 3) o.b = i;
  if (i == 2) delete o.a;
  if (i == 4) o.a = i * 10;
  o.c = i;
}
var hasA = "a" in o;
var hasB = "b" in o;
var vb = o.b;
var keys = [];
for (var k in o) keys.push(k + "=" + o[k]);
console.log(keys.join(","));
