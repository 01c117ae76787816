// A break out of an indeterminate loop and a throw out of one: both escape
// after several continuation frames were opened.
var o = {a: 1};
var i = 0;
while (Math.random() < 2) {
  i = i + 1;
  o["b" + i] = i;
  if (i == 2) delete o.a;
  if (i == 3) break;
}
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","), i);
var p = {t: 1};
var j = 0;
try {
  while (Math.random() < 2) {
    j = j + 1;
    p["t" + j] = j;
    if (j == 2) delete p.t;
    if (j == 3) throw "stop" + j;
  }
} catch (e) {
  console.log("caught", e);
}
var pkeys = [];
for (var k2 in p) pkeys.push(k2);
console.log(pkeys.join(","), j);
var after = 1 + 1;
