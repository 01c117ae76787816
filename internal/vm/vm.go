// Package vm holds the deprecated engine selector. The analysis and the
// concrete interpreter both execute by walking the IR; Engine survives only
// so code written against the old option keeps compiling.
package vm

// Engine named an execution engine.
//
// Deprecated: ignored; there is one engine.
type Engine string

// Engine names.
//
// Deprecated: ignored; there is one engine.
const (
	EngineDefault  Engine = ""
	EngineTree     Engine = "tree"
	EngineBytecode Engine = "bytecode"
)
