package server

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseReq searches the request-header parser: it never panics, it
// refuses with ErrBadRequest only, and anything it accepts is a request
// the Client could have sent — the extent obeys off <= MaxInt64-len, a
// transfer is within maxTransferBytes, and the client's formatter
// re-encodes it into a line that parses back to the same Request.
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
		fields := strings.Fields(line)
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
		again := strings.Fields(formatReq(req))
		back, err := parseReq(again[0], again[1:])
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("%q parsed to %+v, re-encoded as %q, parsed back to %+v (%v)", line, req, again, back, err)
		}
	})
}
