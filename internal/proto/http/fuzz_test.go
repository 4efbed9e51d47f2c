package http

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzHTTPRequest feeds a request to the assembler in segments whose
// lengths come from cuts (a trickling client, one byte at a time at the
// extreme). For every split, the incremental scan must report the header
// complete at exactly the segment where a scan of everything received so
// far first finds the blank line, and the []byte request-line parser
// must agree with the string one it replaced.
func FuzzHTTPRequest(f *testing.F) {
	f.Add([]byte("GET /doc1 HTTP/1.0\r\n\r\n"), []byte{1})
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), []byte{3, 0, 7})
	f.Add([]byte("GET /cgi-bin/spin HTTP/1.0\r\n\r\nextra"), []byte{20, 1, 1, 1})
	f.Add([]byte("POST /login HTTP/1.0\r\n\r"), []byte{2})
	f.Add([]byte("\r\n\r\n"), []byte{1, 1})
	f.Add([]byte("GET /x HTTP/1.0\r\n\r\n"), []byte{0})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var r request
		blank := bytes.Index(data, headerEnd) // where a whole scan finds it
		off, done := 0, false
		for i := 0; off < len(data) && !done; i++ {
			n := 1
			if len(cuts) > 0 {
				n = int(cuts[i%len(cuts)]) % 9
			}
			if n == 0 {
				// An empty segment completes nothing; the pass still
				// feeds one byte so the loop always advances.
				if r.add(nil) {
					t.Fatalf("after %d bytes: an empty segment completed the header", off)
				}
				n = 1
			}
			end := min(off+n, len(data))
			done = r.add(data[off:end])
			if want := blank >= 0 && blank+len(headerEnd) <= end; done != want {
				t.Fatalf("after %d bytes: incremental scan says %v, whole scan %v", end, done, want)
			}
			off = end
		}
		if !bytes.Equal(r.buf, data[:off]) {
			t.Fatalf("assembled %q, want %q", r.buf, data[:off])
		}
		target, ok := parseRequestLine(r.buf)
		wantTarget, wantOK := parseRequestLineString(string(r.buf))
		if target != wantTarget || ok != wantOK {
			t.Fatalf("parseRequestLine(%q) = %q %v, string parser says %q %v",
				r.buf, target, ok, wantTarget, wantOK)
		}
	})
}

// parseRequestLineString is the string-based parser parseRequestLine
// replaced, kept as the fuzz oracle.
func parseRequestLineString(req string) (string, bool) {
	line, _, ok := strings.Cut(req, "\r\n")
	if !ok {
		return "", false
	}
	parts := strings.Fields(line)
	if len(parts) < 2 || parts[0] != "GET" {
		return "", false
	}
	return parts[1], true
}
