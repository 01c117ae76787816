package lexer_test

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"determinacy/internal/lexer"
	"determinacy/internal/workload"
)

func lex(t *testing.T, src string) []lexer.Token {
	t.Helper()
	l := lexer.New(src)
	toks := l.All()
	if err := l.Err(); err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	return toks[:len(toks)-1] // drop EOF
}

func TestBasicTokens(t *testing.T) {
	toks := lex(t, `var x = 42; // comment
		x += "hi\n";`)
	var lits []string
	for _, tok := range toks {
		lits = append(lits, tok.String())
	}
	want := []string{"var", "x", "=", "42", ";", "x", "+=", `"hi\n"`, ";"}
	if len(lits) != len(want) {
		t.Fatalf("got %v, want %v", lits, want)
	}
	for i := range want {
		if lits[i] != want[i] {
			t.Errorf("token %d: got %q want %q", i, lits[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]float64{
		"0":      0,
		"42":     42,
		"3.14":   3.14,
		"1e3":    1000,
		"2.5e-2": 0.025,
		"0x1f":   31,
		"0XFF":   255,
		".5":     0.5,
	}
	for src, want := range cases {
		toks := lex(t, src)
		if len(toks) != 1 || toks[0].Kind != lexer.Number {
			t.Errorf("%q: got %v", src, toks)
			continue
		}
		if toks[0].Num != want {
			t.Errorf("%q: got %v, want %v", src, toks[0].Num, want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	cases := map[string]string{
		`"a\tb"`:      "a\tb",
		`'single'`:    "single",
		`"q\"uote"`:   `q"uote`,
		`"A"`:         "A",
		`"\x41"`:      "A",
		`"back\\s"`:   `back\s`,
		`"new\nline"`: "new\nline",
	}
	for src, want := range cases {
		toks := lex(t, src)
		if len(toks) != 1 || toks[0].Kind != lexer.String {
			t.Errorf("%q: got %v", src, toks)
			continue
		}
		if toks[0].Str != want {
			t.Errorf("%q: got %q, want %q", src, toks[0].Str, want)
		}
	}
}

func TestMaximalMunch(t *testing.T) {
	toks := lex(t, "a===b!==c>>>=d<<=e")
	var ops []string
	for _, tok := range toks {
		if tok.Kind == lexer.Punct {
			ops = append(ops, tok.Lit)
		}
	}
	want := []string{"===", "!==", ">>>=", "<<="}
	for i := range want {
		if i >= len(ops) || ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestKeywordsVsIdents(t *testing.T) {
	toks := lex(t, "if iffy typeof typeofx in instanceof")
	wantKinds := []lexer.Kind{lexer.Keyword, lexer.Ident, lexer.Keyword, lexer.Ident, lexer.Keyword, lexer.Keyword}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%s): kind %v, want %v", i, toks[i], toks[i].Kind, k)
		}
	}
}

func TestComments(t *testing.T) {
	toks := lex(t, "a /* block \n comment */ b // line\nc")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3: %v", len(toks), toks)
	}
}

func TestPositions(t *testing.T) {
	l := lexer.New("a\n  b")
	a := l.Next()
	b := l.Next()
	if a.Pos.Line != 1 || a.Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", a.Pos)
	}
	if b.Pos.Line != 2 || b.Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", b.Pos)
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* unterminated", "@", "1 § 2"} {
		l := lexer.New(src)
		l.All()
		if l.Err() == nil {
			t.Errorf("%q: expected a lexical error", src)
		}
	}
}

// TestLexerNeverPanics feeds arbitrary strings to the lexer; it must
// terminate with tokens or an error, never panic or loop.
func TestLexerNeverPanics(t *testing.T) {
	f := func(src string) bool {
		l := lexer.New(src)
		toks := l.All()
		return len(toks) >= 1 // at least EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestNumberRoundTrip checks that finite positive numbers survive a
// format/lex round trip.
func TestNumberRoundTrip(t *testing.T) {
	f := func(n uint32, frac uint16) bool {
		v := float64(n) + float64(frac)/65536
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return true
		}
		src := trimFloat(v)
		l := lexer.New(src)
		tok := l.Next()
		if l.Err() != nil || tok.Kind != lexer.Number {
			return false
		}
		return math.Abs(tok.Num-v) < 1e-9*(1+math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// TestAllAllocs: All sizes its token slice from the source, so lexing a
// program from perfbench serve's generator config allocates the slice
// once and never regrows it. (Unsized, the slice doubled about ten times
// per program.) The tokens' own allocations are counted by scanning the
// same source with Next alone.
func TestAllAllocs(t *testing.T) {
	src := workload.RandomProgram(workload.GenConfig{
		Seed: 700_000, MaxStmts: 40, WithProto: true, WithEval: true, WithForIn: true,
	})
	toks := lexer.New(src).All()
	all := testing.AllocsPerRun(10, func() { lexer.New(src).All() })
	scan := testing.AllocsPerRun(10, func() {
		l := lexer.New(src)
		for l.Next().Kind != lexer.EOF {
		}
	})
	t.Logf("%d bytes, %d tokens: All %.0f allocations, Next alone %.0f", len(src), len(toks), all, scan)
	if all-scan > 1 {
		t.Errorf("All allocates its %d-token slice %.0f times, want once", len(toks), all-scan)
	}
}
