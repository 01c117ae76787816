// Package lexer tokenizes mini-JS source code.
//
// Mini-JS is the JavaScript subset implemented by this repository: it is a
// strict superset of the paper's µJS calculus (Figure 5) and covers the
// features exercised by the paper's examples — closures, prototypes,
// dynamic property accesses, eval, typeof, for-in, and exceptions.
package lexer

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds. Punct covers all operators and delimiters; the Lit field of
// the token distinguishes them.
const (
	EOF Kind = iota
	Ident
	Number
	String
	Punct
	Keyword
)

var kindNames = [...]string{
	EOF:     "EOF",
	Ident:   "identifier",
	Number:  "number",
	String:  "string",
	Punct:   "punctuator",
	Keyword: "keyword",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position. Line and Col are 1-based; Offset is the byte
// offset into the source.
type Pos struct {
	Line   int
	Col    int
	Offset int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token. For Number tokens Num holds the parsed
// value; for String tokens Str holds the decoded value; Lit always holds the
// literal text (for strings, the text without quotes, undecoded).
type Token struct {
	Kind Kind
	Lit  string
	Num  float64
	Str  string
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "EOF"
	case String:
		return fmt.Sprintf("%q", t.Str)
	default:
		return t.Lit
	}
}

// keywords is the set of reserved words of mini-JS. "undefined" is lexed as
// an identifier and resolved by the parser, matching JavaScript where it is
// a global binding rather than a keyword.
var keywords = map[string]bool{
	"var": true, "function": true, "return": true,
	"if": true, "else": true, "while": true, "do": true, "for": true,
	"in": true, "new": true, "delete": true, "typeof": true,
	"instanceof": true, "null": true, "true": true, "false": true,
	"this": true, "try": true, "catch": true, "finally": true,
	"throw": true, "break": true, "continue": true,
	"switch": true, "case": true, "default": true,
}

// IsKeyword reports whether s is a reserved word of mini-JS.
func IsKeyword(s string) bool { return keywords[s] }
