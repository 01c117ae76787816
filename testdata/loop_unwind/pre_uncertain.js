// Properties that are already existence-uncertain before the loop: m is
// maybe-absent (written under an indeterminate-true branch), ph and d are
// phantoms (written only counterfactually; deleted under an indeterminate
// branch). The loop rewrites, deletes and re-adds them.
var o = {a: 1, d: 2, g: 3};
if (Math.random() < 2) o.m = 1;
if (Math.random() > 2) o.ph = 1;
if (Math.random() < 2) delete o.d;
var i = 0;
while (i < 4 && Math.random() < 2) {
  i = i + 1;
  o.a = i;
  if (i == 1) o.ph = i;
  if (i == 2) o.d = i;
  if (i == 4) delete o.m;
  if (i == 3) delete o.g;
  if (i == 4) o.g = i;
}
var hasM = "m" in o;
var hasPh = "ph" in o;
var hasD = "d" in o;
var hasG = "g" in o;
var vm = o.m;
var vph = o.ph;
var keys = [];
for (var k in o) keys.push(k);
console.log(keys.join(","));
