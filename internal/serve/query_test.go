package serve

import (
	"net/url"
	"testing"
)

// FuzzQueryParams holds the in-place s/t parser to url.ParseQuery on any
// raw query string: queryST must return exactly what
// url.ParseQuery(raw).Get returns for "s" and "t".
//
//	go test -fuzz=FuzzQueryParams -fuzztime 30s -run '^$' ./internal/serve/
func FuzzQueryParams(f *testing.F) {
	for _, raw := range []string{
		"",
		"s=1&t=2",
		"t=2&s=1",
		"s=1;t=2",           // a ';' drops the whole pair
		"s=1&t=2;&t=3",      // ... and only that pair
		"s=%zz&s=4&t=%2",    // bad escapes skip the pair; the next one wins
		"%zz=1&s=2&t=3",     // a bad key escape skips the pair too
		"s=+1&t=1+",         // '+' is a space
		"s=1&s=2&t=3&t=4",   // repeated keys: the first wins
		"s&t=&s=1",          // empty values win over later ones
		"=1&&s=2&=&t=3",     // empty keys and pairs
		"s=%31&%74=%32",     // escaped values and keys
		"s=1%2&t=%",         // truncated escapes
		"S=1&T=2",           // keys are case-sensitive
		"s=1=2&t==3",        // the first '=' splits
		"s=%3B&t=%26",       // escaped ';' and '&' are plain values
		"x=1&s=5&y=%zz&t=6", // other keys, good and bad, are ignored
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw) // the error names a skipped pair; Get still sees the rest
		s, tt := queryST(raw)
		if s != want.Get("s") || tt != want.Get("t") {
			t.Fatalf("queryST(%q) = %q, %q; url.ParseQuery gives %q, %q", raw, s, tt, want.Get("s"), want.Get("t"))
		}
	})
}
