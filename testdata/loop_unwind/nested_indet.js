// Nested indeterminate loops: the inner loop's unwind merges into the outer
// loop's current continuation frame, which the outer unwind then marks.
var o = {z: 0};
var i = 0;
var n = 0;
while (i < 3 && Math.random() < 2) {
  i = i + 1;
  var j = 0;
  while (j < i && Math.random() < 2) {
    j = j + 1;
    o["c" + i + j] = n;
    n = n + 1;
    if (i == 2 && j == 1) delete o.z;
    if (i == 3 && j == 3) o.z = n;
  }
  o["r" + i] = j;
}
var hasZ = "z" in o;
var vz = o.z;
var vr = o.r1;
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","), n);
