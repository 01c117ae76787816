// A wildcard load reaches an object before a named field is created on
// it: the field created later must still flow to the load.
var o = {};
var k = "a" + "b";
var late = o[k];
o.x = function lateFn() { return 1; };
late();
var proto = {};
function C() {}
C.prototype = proto;
var inst = new C();
var viaProto = inst[k];
proto.y = function protoLate() { return 2; };
viaProto();
