package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans mini-JS source into tokens. Create one with New and call Next
// repeatedly; after the end of input Next returns EOF tokens forever.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	err  *Error
}

// New returns a Lexer for src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexical error encountered, or nil.
func (l *Lexer) Err() error {
	if l.err == nil {
		return nil
	}
	return l.err
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col, Offset: l.off} }

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	if l.err == nil {
		l.err = &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
	}
}

// peek returns the current rune without consuming it, or -1 at EOF.
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '/' && l.peekAt(1) == '/':
			for l.peek() != '\n' && l.peek() != -1 {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != -1 {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
				return
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

// Next scans and returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	p := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return Token{Kind: EOF, Pos: p}
	case isIdentStart(r):
		return l.scanIdent(p)
	case (r >= '0' && r <= '9') || (r == '.' && isDigit(l.peekAt(1))):
		// Only ASCII digits start numeric literals; non-ASCII digits fall
		// through to scanPunct, which reports them as unexpected.
		return l.scanNumber(p)
	case r == '"' || r == '\'':
		return l.scanString(p)
	default:
		return l.scanPunct(p)
	}
}

// maxPresizedTokens bounds All's initial token slice at 4.5 MiB, which
// covers any source up to 128 KiB.
const maxPresizedTokens = 1 << 16

// All scans the entire input and returns every token up to and including the
// final EOF. It is a convenience for tests and the parser.
func (l *Lexer) All() []Token {
	// Source runs ~2.8 bytes per token, so half the remaining length
	// holds every token of typical code without regrowing the slice. The
	// cap keeps a large source that is mostly comments from reserving
	// ~36 bytes of tokens per byte up front; past it the slice grows.
	toks := make([]Token, 0, min((len(l.src)-l.off)/2+1, maxPresizedTokens))
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func (l *Lexer) scanIdent(p Pos) Token {
	start := l.off
	for isIdentPart(l.peek()) {
		l.advance()
	}
	lit := l.src[start:l.off]
	k := Ident
	if keywords[lit] {
		k = Keyword
	}
	return Token{Kind: k, Lit: lit, Pos: p}
}

func (l *Lexer) scanNumber(p Pos) Token {
	start := l.off
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for isHexDigit(l.peekAt(0)) {
			l.advance()
		}
		lit := l.src[start:l.off]
		n, err := strconv.ParseUint(lit[2:], 16, 64)
		if err != nil {
			l.errorf(p, "invalid hex literal %q", lit)
		}
		return Token{Kind: Number, Lit: lit, Num: float64(n), Pos: p}
	}
	for isDigit(l.peekAt(0)) {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		l.advance()
		for isDigit(l.peekAt(0)) {
			l.advance()
		}
	} else if l.peek() == '.' && !isIdentStart(rune(l.peekAt(1))) && l.peekAt(1) != '.' {
		// Trailing-dot literal like "1." — consume the dot unless it starts
		// a property access (e.g. 1..toString is not supported; 1.x is 1 . x).
		l.advance()
	}
	if e := l.peek(); e == 'e' || e == 'E' {
		save := l.off
		l.advance()
		if s := l.peek(); s == '+' || s == '-' {
			l.advance()
		}
		if !isDigit(l.peekAt(0)) {
			// Not an exponent after all (e.g. "3e" followed by ident char);
			// back out by resetting offset. Column tracking is approximate
			// here, which is acceptable for error positions.
			l.off = save
		} else {
			for isDigit(l.peekAt(0)) {
				l.advance()
			}
		}
	}
	lit := l.src[start:l.off]
	n, err := strconv.ParseFloat(strings.TrimSuffix(lit, "."), 64)
	if err != nil {
		l.errorf(p, "invalid number literal %q", lit)
	}
	return Token{Kind: Number, Lit: lit, Num: n, Pos: p}
}

func isHexDigit(b byte) bool {
	return isDigit(b) || ('a' <= b && b <= 'f') || ('A' <= b && b <= 'F')
}

func (l *Lexer) scanString(p Pos) Token {
	quote := l.advance()
	var b strings.Builder
	start := l.off
	for {
		r := l.peek()
		switch r {
		case -1, '\n':
			l.errorf(p, "unterminated string literal")
			return Token{Kind: String, Lit: l.src[start:l.off], Str: b.String(), Pos: p}
		case quote:
			lit := l.src[start:l.off]
			l.advance()
			return Token{Kind: String, Lit: lit, Str: b.String(), Pos: p}
		case '\\':
			l.advance()
			esc := l.advance()
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'v':
				b.WriteByte('\v')
			case '0':
				b.WriteByte(0)
			case 'x':
				h1, h2 := l.advance(), l.advance()
				v, err := strconv.ParseUint(string([]rune{h1, h2}), 16, 8)
				if err != nil {
					l.errorf(p, "invalid \\x escape")
				}
				b.WriteByte(byte(v))
			case 'u':
				var hex [4]rune
				for i := range hex {
					hex[i] = l.advance()
				}
				v, err := strconv.ParseUint(string(hex[:]), 16, 32)
				if err != nil {
					l.errorf(p, "invalid \\u escape")
				}
				b.WriteRune(rune(v))
			case '\n':
				// line continuation: contributes nothing
			case -1:
				l.errorf(p, "unterminated string literal")
				return Token{Kind: String, Str: b.String(), Pos: p}
			default:
				b.WriteRune(esc)
			}
		default:
			b.WriteRune(l.advance())
		}
	}
}

// puncts lists multi-character punctuators longest-first so that maximal
// munch applies.
var puncts = []string{
	">>>=", "===", "!==", ">>>", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
	"%", "&", "|", "^", "!", "~", "?", ":", "=", ".",
}

func (l *Lexer) scanPunct(p Pos) Token {
	rest := l.src[l.off:]
	for _, op := range puncts {
		if strings.HasPrefix(rest, op) {
			for range op {
				l.advance()
			}
			return Token{Kind: Punct, Lit: op, Pos: p}
		}
	}
	r := l.advance()
	l.errorf(p, "unexpected character %q", r)
	return Token{Kind: Punct, Lit: string(r), Pos: p}
}
