package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseReq searches the request-header parser: the handler's field
// split is strings.Fields', a line longer than the reader's buffer is
// ErrLineTooLong, the parser never panics, it refuses with ErrBadRequest
// only, and anything it accepts is a request the Client could have sent
// — the extent obeys off <= MaxInt64-len, a transfer is within
// maxTransferBytes, and the client's formatter re-encodes it into a line
// that parses back to the same Request.
func FuzzParseReq(f *testing.F) {
	for _, line := range []string{
		// The protocol comment's commands, then the edges the bugs were at.
		"hello alice", "put 7 0 5", "get 7 128 4096", "trunc 7 100", "del 7", "sync", "stats", "quit",
		"put 1 9223372036854775802 10", "get 1 9223372036854775807 0", "put 1 0 67108865",
		"trunc 1 -1", "del 18446744073709551616", "get 1 2", "sync now", "PUT 1 0 1", "put 1 +0 1", "",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		line, _, _ = strings.Cut(line, "\n") // the handler reads to the first newline
		fields, err := readLine(bufio.NewReaderSize(strings.NewReader(line+"\n"), maxLineBytes), nil)
		if len(line) >= maxLineBytes {
			if !errors.Is(err, ErrLineTooLong) {
				t.Fatalf("%d-byte line read with %v, want ErrLineTooLong", len(line), err)
			}
			return
		}
		if want := strings.Fields(line); err != nil || !reflect.DeepEqual(asStrings(fields), want) {
			t.Fatalf("%q split into %q (%v), strings.Fields gives %q", line, fields, err, want)
		}
		if len(fields) == 0 {
			return
		}
		req, err := parseReq(fields[0], fields[1:])
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%q refused with %v, want ErrBadRequest", line, err)
			}
			return
		}
		if req.Offset < 0 || req.Size < 0 || req.Offset > math.MaxInt64-req.Size {
			t.Fatalf("%q accepted with extent off %d len %d", line, req.Offset, req.Size)
		}
		if (req.Kind == OpPut || req.Kind == OpGet) && req.Size > maxTransferBytes {
			t.Fatalf("%q accepted a %d-byte transfer", line, req.Size)
		}
		again := bytes.Fields(formatReq(nil, req))
		back, err := parseReq(again[0], again[1:])
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("%q parsed to %+v, re-encoded as %q, parsed back to %+v (%v)", line, req, again, back, err)
		}
	})
}

// TestWireLinesPinned holds the header and status lines to their bytes
// on the wire.
func TestWireLinesPinned(t *testing.T) {
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Kind: OpPut, Key: 7, Offset: 0, Size: 5}, "put 7 0 5\n"},
		{Request{Kind: OpGet, Key: math.MaxUint64, Offset: math.MaxInt64, Size: 4096}, "get 18446744073709551615 9223372036854775807 4096\n"},
		{Request{Kind: OpTruncate, Key: 7, Offset: 3, Size: 100}, "trunc 7 100\n"},
		{Request{Kind: OpDelete, Key: 7, Size: 9}, "del 7\n"},
		{Request{Kind: OpSync, Key: 7}, "sync\n"},
	} {
		if got := string(formatReq([]byte("junk"), c.req)[4:]); got != c.want {
			t.Errorf("formatReq(%+v) = %q, want %q", c.req, got, c.want)
		}
	}
	for _, c := range []struct {
		n      int
		suffix string
		want   string
	}{{0, "", "ok 0\n"}, {512, "", "ok 512\n"}, {0, "batched", "ok 0 batched\n"}, {-1, "x y", "ok -1 x y\n"}} {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		if err := writeOK(w, c.n, c.suffix); err != nil || out.String() != c.want {
			t.Errorf("writeOK(%d, %q) wrote %q (%v), want %q", c.n, c.suffix, out.String(), err, c.want)
		}
	}
}

// asStrings copies fields out as strings.
func asStrings(fields [][]byte) []string {
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		out = append(out, string(f))
	}
	return out
}

// fieldsOf splits a header line as the connection handler does.
func fieldsOf(tb testing.TB, line string) [][]byte {
	tb.Helper()
	fields, err := readLine(bufio.NewReader(strings.NewReader(line+"\n")), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return fields
}

// loopReader replays its bytes forever, so a benchmark reads header
// lines from a bufio.Reader without rebuilding it.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// BenchmarkParseReq is the wire codec's decode rung: one header line read
// and split by readLine and decoded by parseReq, on wire_hot's get and
// put headers. It allocates nothing.
func BenchmarkParseReq(b *testing.B) {
	for _, c := range []struct{ name, line string }{{"get", "get 1 0 512\n"}, {"put", "put 1 0 512\n"}} {
		b.Run(c.name, func(b *testing.B) {
			r := bufio.NewReaderSize(&loopReader{b: []byte(c.line)}, maxLineBytes)
			var fieldBuf [4][]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fields, err := readLine(r, fieldBuf[:0])
				if err != nil {
					b.Fatal(err)
				}
				if req, err := parseReq(fields[0], fields[1:]); err != nil || req.Size != 512 {
					b.Fatalf("%q parsed to %+v, %v", c.line, req, err)
				}
			}
		})
	}
}

// BenchmarkWriteStatus is the wire codec's encode rung: one "ok" status
// line, a get's reply header, buffered toward a discarding writer. It
// allocates nothing.
func BenchmarkWriteStatus(b *testing.B) {
	w := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeStatus(w, 512, ""); err != nil {
			b.Fatal(err)
		}
	}
}
