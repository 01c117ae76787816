// One source copied to many destinations, some added after the source's
// points-to set has grown: the copy-edge set switches from a scan to a
// bitset part-way.
function mk(tag) { return {tag: tag}; }
var src = mk(0);
var d0 = src, d1 = src, d2 = src, d3 = src, d4 = src, d5 = src, d6 = src, d7 = src;
var d8 = src, d9 = src, d10 = src, d11 = src, d12 = src, d13 = src, d14 = src, d15 = src;
var d16 = src, d17 = src, d18 = src, d19 = src;
src = mk(1);
src = {late: true};
var d20 = src, d21 = src, d22 = src;
function use(x) { return x; }
var r0 = use(d0), r1 = use(d8), r2 = use(d16), r3 = use(d22);
