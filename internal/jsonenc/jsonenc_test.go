package jsonenc

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendString checks AppendString against json.Marshal, which
// escapes HTML as the server's json.Encoder does. The seed corpus runs in
// every go test.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{
		"",
		"plain ascii",
		"\xff", "a\xffb", "\xc3", "\xe2\x80", // invalid UTF-8
		string(rune(0xd800)), // what String.fromCharCode(0xd800) yields
		"\xed\xa0\x80",       // a surrogate encoded as UTF-8 bytes
		"\u2028", "x\u2029y",
		"<script>&amp;</script>",
		"\b\f\n\r\t",
		"\x7f", "\x00", "\x01\x1f",
		`"quoted" \back\slash`,
		"é☃𝄞",
		"q\"b\\s\nlt<amp&ls\u2028é☃",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
		if got := AppendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("AppendString([]byte(%q)) = %s, json.Marshal = %s", s, got, want)
		}
	})
}
