// Regression tests for the response-desync fix: a half-written response
// is fatal for the connection — the handler closes instead of serving
// the next command on a stream whose peer can no longer tell status
// lines from payload bytes. These tests stub the Service interface, so
// they live in the package (the external suite assembles real stacks
// through core, which imports this package).
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ssmobile/internal/sim"
)

// stubSession records the requests it served and answers from a canned
// object map.
type stubSession struct {
	calls   int
	objects map[uint64][]byte
}

func (s *stubSession) Do(req Request) (Response, error) {
	s.calls++
	switch req.Kind {
	case OpGet:
		data, ok := s.objects[req.Key]
		if !ok {
			return Response{}, fmt.Errorf("%w: key %d", ErrNotFound, req.Key)
		}
		if req.Size < int64(len(data)) {
			data = data[:req.Size]
		}
		return Response{N: len(data), Data: data}, nil
	case OpPut:
		if s.objects == nil {
			s.objects = map[uint64][]byte{}
		}
		s.objects[req.Key] = append([]byte(nil), req.Data...)
		return Response{N: len(req.Data)}, nil
	default:
		return Response{}, nil
	}
}

// stubService hands out one shared stubSession for every tenant.
type stubService struct {
	sess stubSession
}

func (s *stubService) OpenSession(tenant string) (RequestDoer, error) { return &s.sess, nil }
func (s *stubService) Stats() Stats                                   { return Stats{} }
func (s *stubService) Drain() error                                   { return nil }
func (s *stubService) Now() sim.Time                                  { return 0 }

// failWriter fails every write after the first n bytes — a connection
// that dies mid-response.
type failWriter struct {
	n       int
	written int
}

var errConnBroken = errors.New("simulated mid-write connection failure")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.written >= f.n {
		return 0, errConnBroken
	}
	if f.written+len(p) > f.n {
		k := f.n - f.written
		f.written = f.n
		return k, errConnBroken
	}
	f.written += len(p)
	return len(p), nil
}

// TestServeCmdHalfWrittenResponseIsFatal drives serveCmd with a writer
// that fails partway through the status line and asserts the failure is
// surfaced as fatal (pre-fix, writeOK swallowed the error and the
// handler went on to serve the next command on the desynced stream).
func TestServeCmdHalfWrittenResponseIsFatal(t *testing.T) {
	tcp := NewTCP(&stubService{sess: stubSession{objects: map[uint64][]byte{1: []byte("payload")}}})
	var sess RequestDoer = &stubSession{objects: map[uint64][]byte{1: []byte("payload")}}

	// The status line "ok 7\n" is 5 bytes; fail after 2.
	w := bufio.NewWriter(&failWriter{n: 2})
	r := bufio.NewReader(strings.NewReader(""))
	err := tcp.serveCmd(r, w, &sess, new([]byte), fieldsOf(t, "get 1 0 7"))
	if err == nil {
		t.Fatal("half-written response was not fatal")
	}
	if !errors.Is(err, errConnBroken) {
		t.Fatalf("fatal error = %v, want the underlying write failure", err)
	}
}

// TestServeCmdHalfWrittenPayloadIsFatal is the same for a failure inside
// a Get payload after a complete status line.
func TestServeCmdHalfWrittenPayloadIsFatal(t *testing.T) {
	tcp := NewTCP(&stubService{})
	var sess RequestDoer = &stubSession{objects: map[uint64][]byte{1: []byte("a long enough payload body")}}

	w := bufio.NewWriter(&failWriter{n: 8}) // status line flushes, payload fails
	r := bufio.NewReader(strings.NewReader(""))
	err := tcp.serveCmd(r, w, &sess, new([]byte), fieldsOf(t, "get 1 0 26"))
	if err == nil {
		t.Fatal("half-written payload was not fatal")
	}
}

// TestHandleClosesAfterWriteFailure runs the full handler over a pipe
// whose client end closes mid-conversation: the handler must stop at the
// failed response and never dispatch the pipelined follow-up command.
func TestHandleClosesAfterWriteFailure(t *testing.T) {
	svc := &stubService{}
	tcp := NewTCP(svc)
	serverConn, clientConn := net.Pipe()
	tcp.conns[serverConn] = &connState{}
	tcp.wg.Add(1)
	go tcp.handle(serverConn)

	cr := bufio.NewReader(clientConn)
	// hello, then two pipelined gets: the first one's response will fail
	// mid-write (the client closes right after hello's ok), so the second
	// must never reach the session.
	if _, err := clientConn.Write([]byte("hello t\nget 1 0 4\nget 2 0 4\n")); err != nil {
		t.Fatal(err)
	}
	line, err := cr.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ok 0" {
		t.Fatalf("hello: %q, %v", line, err)
	}
	clientConn.Close() // the next response write fails

	deadline := time.Now().Add(5 * time.Second)
	for tcp.liveConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler did not exit after the write failure")
		}
		time.Sleep(time.Millisecond)
	}
	if got := svc.sess.calls; got > 1 {
		t.Fatalf("served %d commands on a desynced stream, want at most 1", got)
	}
}

// liveConns reports the tracked connection count (test helper).
func (t *TCP) liveConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// TestClientReadsStatusLongerThanItsBuffer: a status line longer than
// the client's reader buffer (an error message quoting a long name) is
// read whole, and the next reply on the stream still parses.
func TestClientReadsStatusLongerThanItsBuffer(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	msg := strings.Repeat("x", 3*4096)
	go func() {
		defer srvEnd.Close()
		r := bufio.NewReader(srvEnd)
		for _, reply := range []string{"err notfound " + msg + "\n", "ok 7 batched\n"} {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if _, err := srvEnd.Write([]byte(reply)); err != nil {
				return
			}
		}
	}()
	c := &Client{conn: cliEnd, r: bufio.NewReader(cliEnd), w: bufio.NewWriter(cliEnd)}
	if err := c.Delete(1); !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), msg) {
		t.Fatalf("long error status: %.80v", err)
	}
	if n, suffix, err := c.roundTrip([]byte("sync\n"), nil); n != 7 || suffix != "batched" || err != nil {
		t.Fatalf("next status: %d %q %v", n, suffix, err)
	}
}
