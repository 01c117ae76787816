package ir

import (
	"fmt"
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

// InstrString renders one instruction without its nested blocks.
func InstrString(in Instr) string {
	switch in := in.(type) {
	case *Const:
		return fmt.Sprintf("r%d = const %s", in.Dst, litString(in.Val))
	case *Move:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.Src)
	case *LoadVar:
		return fmt.Sprintf("r%d = var %s@%d.%d", in.Dst, in.Var.Name, in.Var.Hops, in.Var.Slot)
	case *StoreVar:
		return fmt.Sprintf("var %s@%d.%d = r%d", in.Var.Name, in.Var.Hops, in.Var.Slot, in.Src)
	case *LoadGlobal:
		return fmt.Sprintf("r%d = global %s", in.Dst, in.Name)
	case *StoreGlobal:
		return fmt.Sprintf("global %s = r%d", in.Name, in.Src)
	case *MakeClosure:
		return fmt.Sprintf("r%d = closure %s#%d", in.Dst, name(in.Fn), in.Fn.Index)
	case *MakeObject:
		var ps []string
		for _, p := range in.Props {
			ps = append(ps, fmt.Sprintf("%s: r%d", p.Key, p.Val))
		}
		return fmt.Sprintf("r%d = object {%s}", in.Dst, strings.Join(ps, ", "))
	case *MakeArray:
		var es []string
		for _, e := range in.Elems {
			es = append(es, fmt.Sprintf("r%d", e))
		}
		return fmt.Sprintf("r%d = array [%s]", in.Dst, strings.Join(es, ", "))
	case *GetField:
		return fmt.Sprintf("r%d = r%d.%s", in.Dst, in.Obj, in.Name)
	case *GetProp:
		return fmt.Sprintf("r%d = r%d[r%d]", in.Dst, in.Obj, in.Prop)
	case *SetField:
		return fmt.Sprintf("r%d.%s = r%d", in.Obj, in.Name, in.Src)
	case *SetProp:
		return fmt.Sprintf("r%d[r%d] = r%d", in.Obj, in.Prop, in.Src)
	case *DelField:
		return fmt.Sprintf("r%d = delete r%d.%s", in.Dst, in.Obj, in.Name)
	case *DelProp:
		return fmt.Sprintf("r%d = delete r%d[r%d]", in.Dst, in.Obj, in.Prop)
	case *BinOp:
		return fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.L, in.Op, in.R)
	case *UnOp:
		return fmt.Sprintf("r%d = %s r%d", in.Dst, in.Op, in.X)
	case *Call:
		return fmt.Sprintf("r%d = call r%d this=r%d args=%s", in.Dst, in.Fn, in.This, regList(in.Args))
	case *New:
		return fmt.Sprintf("r%d = new r%d args=%s", in.Dst, in.Fn, regList(in.Args))
	case *If:
		return fmt.Sprintf("if r%d", in.Cond)
	case *While:
		kind := "while"
		if in.PostTest {
			kind = "do-while"
		}
		return fmt.Sprintf("%s r%d", kind, in.Cond)
	case *ForIn:
		if in.Global {
			return fmt.Sprintf("for %s in r%d", in.TargetGlobal, in.Obj)
		}
		return fmt.Sprintf("for %s in r%d", in.Target.Name, in.Obj)
	case *Return:
		if in.Src == NoReg {
			return "return"
		}
		return fmt.Sprintf("return r%d", in.Src)
	case *Throw:
		return fmt.Sprintf("throw r%d", in.Src)
	case *Break:
		return "break"
	case *Continue:
		return "continue"
	case *Try:
		return "try"
	default:
		return fmt.Sprintf("%T", in)
	}
}

func litString(l Literal) string {
	switch l.Kind {
	case LitUndefined:
		return "undefined"
	case LitNull:
		return "null"
	case LitBool:
		return fmt.Sprintf("%t", l.Bool)
	case LitNumber:
		return fmt.Sprintf("%g", l.Num)
	case LitString:
		return fmt.Sprintf("%q", l.Str)
	}
	return "?"
}

func regList(rs []Reg) string {
	var ss []string
	for _, r := range rs {
		ss = append(ss, fmt.Sprintf("r%d", r))
	}
	return "[" + strings.Join(ss, ", ") + "]"
}
