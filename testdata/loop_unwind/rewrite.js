// A property created in the first indeterminate iteration and rewritten in
// every later one, next to a variable and a property present before the loop.
var o = {a: 1};
var i = 0;
var sum = 0;
while (i < 4 && Math.random() < 2) {
  i = i + 1;
  if (i == 1) {
    o.p = 10;
  } else {
    o.p = o.p + i;
  }
  o.a = o.a * 2;
  sum = sum + i;
}
var hasP = "p" in o;
var pa = o.a;
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","), o.a, o.p, i, sum);
