// Properties deleted in different iterations end the loop as phantoms, and
// are re-added after it in both orders. A phantom is concretely absent, so
// re-adding one appends it to the key order, as in an uninstrumented run,
// whatever slot the phantom held. (The for-in facts come out determinate,
// although an execution that skips the loop enumerates a,b,c: re-adding a
// phantom does not make the key order indeterminate.)
var o = {a: 1, b: 2, c: 3};
var p = {a: 1, b: 2, c: 3};
var i = 0;
while (i < 3 && Math.random() < 2) {
  i = i + 1;
  if (i == 1) { delete o.b; delete p.b; }
  if (i == 3) { delete o.a; delete p.a; }
}
o.a = 1;
o.b = 2;
p.b = 2;
p.a = 1;
var okeys = [];
for (var k in o) okeys.push(k);
var pkeys = [];
for (var k2 in p) pkeys.push(k2);
console.log(okeys.join(","), pkeys.join(","));
