package main

import (
	"fmt"
	"time"

	"determinacy/internal/obs"
	"determinacy/internal/vm"
)

// layer names one module of the system, as the per-layer metrics name it.
type layer int

const (
	lParser layer = iota
	lIR
	lProgcache
	lCore
	lDOM
	lSpecialize
	lAST
	lPointsto
	lFacts
	lFactcache
	lServer
	numLayers
)

// phaseLayer maps the program's obs.PhaseScope names to layers.
var phaseLayer = map[string]layer{
	"parse":      lParser,
	"lower":      lIR,
	"exec":       lCore,
	"handlers":   lDOM,
	"solve":      lPointsto,
	"specialize": lSpecialize,
}

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// recorder times calls into layers from outside. Nested calls form a stack;
// a layer's self time is its span minus the spans nested inside it. A nil
// recorder records nothing, which is how untraced runs stay untraced. One
// recorder serves one goroutine.
type recorder struct {
	self  [numLayers]time.Duration
	stack []frame
}

func (r *recorder) begin(l layer) {
	if r == nil {
		return
	}
	r.stack = append(r.stack, frame{l: l, start: time.Now()})
}

// end closes the innermost open span, which must belong to l.
func (r *recorder) end(l layer) {
	if r == nil || len(r.stack) == 0 || r.stack[len(r.stack)-1].l != l {
		return
	}
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	d := time.Since(f.start)
	r.self[l] += d - f.child
	if n := len(r.stack); n > 0 {
		r.stack[n-1].child += d
	}
}

// selfMS reports a layer's self time in milliseconds.
func (r *recorder) selfMS(l layer) float64 {
	if r == nil {
		return 0
	}
	return float64(r.self[l]) / 1e6
}

// progTracer is the obs.Tracer the traced runs hand to the program. Phase
// events become child spans of whatever layer call is open on the recorder;
// other events only cost the program its emission.
type progTracer struct{ r *recorder }

func (t *progTracer) Event(e obs.Event) {
	switch e.Kind {
	case obs.EvPhaseBegin:
		if l, ok := phaseLayer[e.Phase]; ok {
			t.r.begin(l)
		}
	case obs.EvPhaseEnd:
		if l, ok := phaseLayer[e.Phase]; ok {
			t.r.end(l)
		}
	}
}

// engineRounds is how many times engineRatio runs every input per engine.
const engineRounds = 3

// engineRatio times core execution of n inputs under the tree and the
// bytecode engine, input by input and alternating which engine runs first,
// so drift in the machine's speed falls on both; it returns tree time over
// bytecode time. run executes input i under eng, recording core spans on r.
func engineRatio(n int, run func(i int, eng vm.Engine, r *recorder) error) (float64, error) {
	bc, tree := &recorder{}, &recorder{}
	for round := 0; round < engineRounds; round++ {
		for i := 0; i < n; i++ {
			first, second := vm.EngineBytecode, vm.EngineTree
			if (round+i)%2 == 1 {
				first, second = second, first
			}
			for _, eng := range []vm.Engine{first, second} {
				r := bc
				if eng == vm.EngineTree {
					r = tree
				}
				if err := run(i, eng, r); err != nil {
					return 0, fmt.Errorf("%s engine: %w", eng, err)
				}
			}
		}
	}
	if bc.selfMS(lCore) == 0 {
		return 0, nil
	}
	return tree.selfMS(lCore) / bc.selfMS(lCore), nil
}

// tracer returns the program tracer for r, or nil (tracing off) when r is.
func (r *recorder) tracer() obs.Tracer {
	if r == nil {
		return nil
	}
	return &progTracer{r: r}
}
