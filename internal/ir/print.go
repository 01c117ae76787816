package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders a module as readable IR, for tests and debugging.
func (m *Module) String() string {
	var b strings.Builder
	for _, f := range m.Funcs() {
		fmt.Fprintf(&b, "func %s#%d(%s) slots=%v\n", name(f), f.Index, strings.Join(f.Params, ", "), f.SlotNames)
		printBlock(&b, f.Body, 1)
	}
	return b.String()
}

func name(f *Function) string {
	if f.Name == "" {
		return "<anon>"
	}
	return f.Name
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	if blk == nil {
		return
	}
	ind := strings.Repeat("  ", depth)
	for _, in := range blk.Instrs {
		fmt.Fprintf(b, "%s%4d| %s\n", ind, in.IID(), InstrString(in))
		switch in := in.(type) {
		case *If:
			printBlock(b, in.Then, depth+1)
			if in.Else != nil {
				fmt.Fprintf(b, "%selse:\n", ind)
				printBlock(b, in.Else, depth+1)
			}
		case *While:
			fmt.Fprintf(b, "%scond:\n", ind)
			printBlock(b, in.CondBlock, depth+1)
			fmt.Fprintf(b, "%sbody:\n", ind)
			printBlock(b, in.Body, depth+1)
			if in.Update != nil {
				fmt.Fprintf(b, "%supdate:\n", ind)
				printBlock(b, in.Update, depth+1)
			}
		case *ForIn:
			printBlock(b, in.Body, depth+1)
		case *Try:
			printBlock(b, in.Body, depth+1)
			if in.Catch != nil {
				fmt.Fprintf(b, "%scatch %s:\n", ind, in.CatchVar.Name)
				printBlock(b, in.Catch, depth+1)
			}
			if in.Finally != nil {
				fmt.Fprintf(b, "%sfinally:\n", ind)
				printBlock(b, in.Finally, depth+1)
			}
		}
	}
}

// InstrString renders one instruction without its nested blocks. Fact
// rendering labels every program point with it, so it appends with
// strconv rather than formatting with fmt.
func InstrString(in Instr) string {
	var buf [64]byte
	return string(appendInstr(buf[:0], in))
}

func appendReg(b []byte, r Reg) []byte {
	return strconv.AppendInt(append(b, 'r'), int64(r), 10)
}

// appendDst appends "r<dst> = ".
func appendDst(b []byte, r Reg) []byte {
	return append(appendReg(b, r), " = "...)
}

// appendVar appends "name@hops.slot".
func appendVar(b []byte, v VarRef) []byte {
	b = strconv.AppendInt(append(append(b, v.Name...), '@'), int64(v.Hops), 10)
	return strconv.AppendInt(append(b, '.'), int64(v.Slot), 10)
}

// appendRegs appends "[r1, r2]".
func appendRegs(b []byte, rs []Reg) []byte {
	b = append(b, '[')
	for i, r := range rs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendReg(b, r)
	}
	return append(b, ']')
}

func appendInstr(b []byte, in Instr) []byte {
	switch in := in.(type) {
	case *Const:
		return appendLit(append(appendDst(b, in.Dst), "const "...), in.Val)
	case *Move:
		return appendReg(appendDst(b, in.Dst), in.Src)
	case *LoadVar:
		return appendVar(append(appendDst(b, in.Dst), "var "...), in.Var)
	case *StoreVar:
		return appendReg(append(appendVar(append(b, "var "...), in.Var), " = "...), in.Src)
	case *LoadGlobal:
		return append(append(appendDst(b, in.Dst), "global "...), in.Name...)
	case *StoreGlobal:
		return appendReg(append(append(append(b, "global "...), in.Name...), " = "...), in.Src)
	case *MakeClosure:
		b = append(append(appendDst(b, in.Dst), "closure "...), name(in.Fn)...)
		return strconv.AppendInt(append(b, '#'), int64(in.Fn.Index), 10)
	case *MakeObject:
		b = append(appendDst(b, in.Dst), "object {"...)
		for i, p := range in.Props {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendReg(append(append(b, p.Key...), ": "...), p.Val)
		}
		return append(b, '}')
	case *MakeArray:
		return appendRegs(append(appendDst(b, in.Dst), "array "...), in.Elems)
	case *GetField:
		return append(append(appendReg(appendDst(b, in.Dst), in.Obj), '.'), in.Name...)
	case *GetProp:
		b = appendReg(append(appendReg(appendDst(b, in.Dst), in.Obj), '['), in.Prop)
		return append(b, ']')
	case *SetField:
		b = append(append(appendReg(b, in.Obj), '.'), in.Name...)
		return appendReg(append(b, " = "...), in.Src)
	case *SetProp:
		b = appendReg(append(appendReg(b, in.Obj), '['), in.Prop)
		return appendReg(append(b, "] = "...), in.Src)
	case *DelField:
		b = appendReg(append(appendDst(b, in.Dst), "delete "...), in.Obj)
		return append(append(b, '.'), in.Name...)
	case *DelProp:
		b = appendReg(append(appendDst(b, in.Dst), "delete "...), in.Obj)
		return append(appendReg(append(b, '['), in.Prop), ']')
	case *BinOp:
		b = append(append(appendReg(appendDst(b, in.Dst), in.L), ' '), in.Op...)
		return appendReg(append(b, ' '), in.R)
	case *UnOp:
		return appendReg(append(append(appendDst(b, in.Dst), in.Op...), ' '), in.X)
	case *Call:
		b = appendReg(append(appendDst(b, in.Dst), "call "...), in.Fn)
		b = appendReg(append(b, " this="...), in.This)
		return appendRegs(append(b, " args="...), in.Args)
	case *New:
		b = appendReg(append(appendDst(b, in.Dst), "new "...), in.Fn)
		return appendRegs(append(b, " args="...), in.Args)
	case *If:
		return appendReg(append(b, "if "...), in.Cond)
	case *While:
		if in.PostTest {
			b = append(b, "do-"...)
		}
		return appendReg(append(b, "while "...), in.Cond)
	case *ForIn:
		b = append(b, "for "...)
		if in.Global {
			b = append(b, in.TargetGlobal...)
		} else {
			b = append(b, in.Target.Name...)
		}
		return appendReg(append(b, " in "...), in.Obj)
	case *Return:
		if in.Src == NoReg {
			return append(b, "return"...)
		}
		return appendReg(append(b, "return "...), in.Src)
	case *Throw:
		return appendReg(append(b, "throw "...), in.Src)
	case *Break:
		return append(b, "break"...)
	case *Continue:
		return append(b, "continue"...)
	case *Try:
		return append(b, "try"...)
	default:
		return fmt.Appendf(b, "%T", in)
	}
}

// appendLit appends a literal as a Go value would print under %g, %q and
// %t.
func appendLit(b []byte, l Literal) []byte {
	switch l.Kind {
	case LitUndefined:
		return append(b, "undefined"...)
	case LitNull:
		return append(b, "null"...)
	case LitBool:
		return strconv.AppendBool(b, l.Bool)
	case LitNumber:
		return strconv.AppendFloat(b, l.Num, 'g', -1, 64)
	case LitString:
		return strconv.AppendQuote(b, l.Str)
	}
	return append(b, '?')
}
