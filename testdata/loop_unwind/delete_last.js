// A property deleted in the last iteration must read as a phantom
// (undefined?) afterwards; one created in the first iteration and deleted in
// the last never existed before the loop.
var o = {a: 1, b: 2, c: 3};
var i = 0;
while (i < 3 && Math.random() < 2) {
  i = i + 1;
  o.a = i;
  if (i == 1) o.n = 1;
  if (i == 3) delete o.b;
  if (i == 3) delete o.n;
}
var hasB = "b" in o;
var hasN = "n" in o;
var vb = o.b;
var vn = o.n;
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","), o.b, o.n);
