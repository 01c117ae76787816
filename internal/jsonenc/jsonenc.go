// Package jsonenc appends JSON without reflection, byte for byte as
// encoding/json's Encoder writes it with its default HTML escaping. The
// server's /v1/analyze writer builds a response of thousands of fact
// strings with it.
package jsonenc

import "unicode/utf8"

const hex = "0123456789abcdef"

// safe reports the ASCII bytes a JSON string holds as they are: printable
// characters other than the quote, the backslash and the HTML-sensitive
// <, > and &.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as a JSON string, as json.Marshal writes it:
// <, > and & as \u003c, \u003e and \u0026; \b, \f, \n, \r and \t in short
// form and other control characters as \u00XX; each invalid UTF-8 byte as
// \ufffd; and U+2028 and U+2029 escaped.
func AppendString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		// Converting at most utf8.UTFMax bytes keeps a []byte s off the
		// heap.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
