package lang

import "testing"

// FuzzParseFormat: Format's text is a program's identity for the
// compile cache (its salt) and the source the exec wire ships to pool
// children, so rendering must be a fixed point of parsing: for any
// source that parses, Format(Parse(Format(p))) == Format(p), and
// neither Parse nor Format may panic. Checked programs are not
// required: the cache fingerprints programs before Check runs.
func FuzzParseFormat(f *testing.F) {
	f.Add(seedSrc)
	f.Add(`class T { static void main() { print(7); } }`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, text)
		}
		if again := Format(q); again != text {
			t.Fatalf("Format is not a fixed point of Parse:\n--- first ---\n%s\n--- second ---\n%s", text, again)
		}
	})
}
