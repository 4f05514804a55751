// TCP transport for the object-storage service: a line-oriented text
// protocol with length-prefixed binary payloads, chosen so a session is
// debuggable with nc(1) and the framing stays trivial.
//
// Protocol (one session per connection):
//
//	hello <tenant>                 -> ok 0
//	put <key> <offset> <len>\n<len bytes>
//	                               -> ok <n>
//	get <key> <offset> <len>       -> ok <n>\n<n bytes>
//	trunc <key> <size>             -> ok 0
//	del <key>                      -> ok 0
//	sync                           -> ok 0 [batched]
//	stats                          -> ok 0 completed=<n> shed=<n>
//	quit                           -> ok 0, server closes
//
// Errors are "err <code> <message>" where code is one of overloaded,
// draining, notfound, bad — mapped 1:1 onto the package's typed errors
// by Client (the request verbs and the codes are the wireVerbs and
// wireErrors tables below). An extent (put/get offset+len, trunc size)
// that overflows int64 or ends past the card's logical capacity is
// "bad"; after a put header that does not parse the server closes the
// connection, since the payload behind it cannot be told from commands.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"ssmobile/internal/sim"
)

// maxLineBytes caps one protocol header line. A command line is a
// handful of decimal fields, so the cap is generous; without it a
// misbehaving peer could balloon server memory with a single endless
// line (readLine buffers until the newline arrives).
const maxLineBytes = 4096

// ErrLineTooLong reports a protocol header line that exceeded
// maxLineBytes. It unwraps to ErrBadRequest; once framing is lost the
// connection cannot be resynchronised, so the server answers with the
// error and closes.
var ErrLineTooLong = fmt.Errorf("%w: header line exceeds %d bytes", ErrBadRequest, maxLineBytes)

// drainGrace bounds how long a request caught in flight by Shutdown may
// keep going before its connection is cut anyway: the drain must not
// hang forever on a peer that stalls inside a PUT body — or one that
// stops reading while a GET response is being written. A variable so
// tests can shorten it.
var drainGrace = 10 * time.Second

// The wire vocabulary, declared once: parseReq and writeErr on this side
// of the socket, and Client on the other, read these two tables.
//
// wireVerbs names each request kind on the wire (the telemetry names of
// OpKind.String are longer). wireErrors pairs each error code with the
// typed error it carries, in match order; the last entry, "bad", also
// covers every error that is none of the others and every unknown code.
var (
	wireVerbs  = [...]string{OpGet: "get", OpPut: "put", OpTruncate: "trunc", OpDelete: "del", OpSync: "sync"}
	wireErrors = [...]struct {
		code string
		err  error
	}{
		{"overloaded", ErrOverloaded},
		{"draining", ErrDraining},
		{"notfound", ErrNotFound},
		{"bad", ErrBadRequest},
	}
)

// maxTransferBytes caps one put or get transfer.
const maxTransferBytes = 64 << 20

// formatReq appends a request's header line to b — what Client sends
// and parseReq decodes; a put's Size is the length of the payload to
// follow.
func formatReq(b []byte, req Request) []byte {
	key := func(b []byte) []byte { return strconv.AppendUint(append(b, ' '), req.Key, 10) }
	num := func(b []byte, v int64) []byte { return strconv.AppendInt(append(b, ' '), v, 10) }
	b = append(b, wireVerbs[req.Kind]...)
	switch req.Kind {
	case OpPut, OpGet:
		b = num(num(key(b), req.Offset), req.Size)
	case OpTruncate:
		b = num(key(b), req.Size)
	case OpDelete:
		b = key(b)
	}
	return append(b, '\n')
}

// RequestDoer serves one tenant's requests: a *Session from a single
// Server, or a cluster session routing across many.
type RequestDoer interface {
	Do(Request) (Response, error)
}

// Service is the request-serving surface the TCP front end and the
// workload driver operate: the single-card *Server implements it, and so
// does the cluster router (internal/cluster), which is how one TCP front
// end serves N cards.
type Service interface {
	// OpenSession starts (or resumes) a tenant session.
	OpenSession(tenant string) (RequestDoer, error)
	// Stats snapshots the aggregate request accounting.
	Stats() Stats
	// Drain stops admission and flushes everything to stable storage.
	Drain() error
	// Now reports the service's current virtual time.
	Now() sim.Time
}

// TCP serves a Service over a listener with graceful drain on shutdown.
type TCP struct {
	srv Service
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	draining bool
	wg       sync.WaitGroup
}

// connState tracks where a connection's handler is, so Shutdown can tell
// an idle connection (parked in readLine between requests — wake it with
// an expired deadline) from one serving a command (mid-payload-read or
// mid-response — leave its deadline alone and let the request finish).
type connState struct {
	inCmd bool
}

// NewTCP wraps svc for network serving.
func NewTCP(svc Service) *TCP {
	return &TCP{srv: svc, conns: make(map[net.Conn]*connState)}
}

// Listen starts listening on addr (e.g. "127.0.0.1:0") and serving in
// the background. Use Addr for the bound address and Shutdown to stop.
func (t *TCP) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

// Addr reports the bound listener address.
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		t.mu.Lock()
		if t.draining {
			t.mu.Unlock()
			conn.Close()
			continue
		}
		t.conns[conn] = &connState{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.handle(conn)
	}
}

// Shutdown drains gracefully: stop accepting, let every in-flight
// request complete and get its response, reject anything newly read
// with the draining error, then run the server's final sync. It returns
// once all connection handlers have exited.
func (t *TCP) Shutdown() error {
	t.mu.Lock()
	if t.draining {
		t.mu.Unlock()
		return nil
	}
	t.draining = true
	// Unblock handlers parked in readLine between requests: idle
	// connections wake up, fail the read, and exit. A connection mid
	// command — its header line read, its handler possibly still inside
	// the payload read or writing the response — keeps an open deadline
	// (bounded by drainGrace) so the in-flight request completes and
	// gets its response instead of dying silently on the wake-up
	// deadline. Both directions are bounded: a peer that stops reading
	// mid-response would otherwise stall the handler in the response
	// write, past any read deadline, and hang the drain.
	for c, st := range t.conns {
		if st.inCmd {
			c.SetDeadline(time.Now().Add(drainGrace))
		} else {
			c.SetDeadline(time.Now())
		}
	}
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	t.wg.Wait()
	return t.srv.Drain()
}

func (t *TCP) handle(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()

	r := bufio.NewReaderSize(conn, maxLineBytes)
	w := bufio.NewWriter(conn)
	var sess RequestDoer
	var payload []byte // reused by every put on this connection
	var fieldBuf [4][]byte
	for {
		// fields alias r's buffer: they are dead once serveCmd reads a
		// put's payload.
		fields, err := readLine(r, fieldBuf[:0])
		if err != nil {
			// An overlong line still has a usable write side: report the
			// typed error before closing. Any other failure (drain
			// wake-up deadline between requests, peer gone) just ends
			// the connection.
			if errors.Is(err, ErrLineTooLong) {
				writeErr(w, err)
			}
			return
		}
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "quit" {
			// A polite close needs no service admission, so it bypasses
			// beginCmd and still gets its clean "ok" goodbye during a
			// drain. The goodbye write is bounded (a racing Shutdown may
			// already have expired this connection's deadline).
			conn.SetDeadline(time.Now().Add(drainGrace))
			writeOK(w, 0, "")
			return
		}
		if !t.beginCmd(conn) {
			// Drain began before this command was admitted: answer
			// cleanly and close.
			writeErr(w, ErrDraining)
			return
		}
		err = t.serveCmd(r, w, &sess, &payload, fields)
		stop := t.endCmd(conn)
		if err != nil {
			return
		}
		if stop {
			// Drain began while this command was in flight; its response
			// is already flushed. Close instead of reading the next
			// command.
			return
		}
	}
}

// beginCmd admits one read command for service. It reports false when
// the service is draining (the caller answers ErrDraining); otherwise it
// marks the connection in-command — Shutdown leaves such connections
// alone — and clears any expired wake-up deadline a racing Shutdown may
// already have set (a header line buffered before the deadline fired
// still parses; its payload read must not inherit the dead deadline).
func (t *TCP) beginCmd(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return false
	}
	conn.SetDeadline(time.Time{})
	if st := t.conns[conn]; st != nil {
		st.inCmd = true
	}
	return true
}

// endCmd marks the command finished and reports whether a drain began
// while it was in flight (the handler then closes instead of reading the
// next command).
func (t *TCP) endCmd(conn net.Conn) (draining bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.conns[conn]; st != nil {
		st.inCmd = false
	}
	return t.draining
}

// serveCmd executes one command ("quit" is handled by the caller); the
// returned error means the connection is unusable (I/O failure or a
// half-written response), not a request-level error — those are written
// to the peer and the session continues. A put's payload is read into
// *payload, grown when the put is larger than it.
func (t *TCP) serveCmd(r *bufio.Reader, w *bufio.Writer, sess *RequestDoer, payload *[]byte, fields [][]byte) (fatal error) {
	cmd := fields[0]
	if string(cmd) == "hello" {
		if len(fields) != 2 {
			return writeErr(w, fmt.Errorf("%w: hello wants a tenant", ErrBadRequest))
		}
		s, err := t.srv.OpenSession(string(fields[1]))
		if err != nil {
			return writeErr(w, err)
		}
		*sess = s
		return writeOK(w, 0, "")
	}
	if *sess == nil {
		return writeErr(w, fmt.Errorf("%w: hello first", ErrBadRequest))
	}

	if string(cmd) == "stats" {
		if len(fields) != 1 {
			return writeErr(w, fmt.Errorf("%w: stats wants no arguments", ErrBadRequest))
		}
		st := t.srv.Stats()
		return writeOK(w, 0, fmt.Sprintf("completed=%d shed=%d", st.Completed, st.Shed))
	}
	req, err := parseReq(cmd, fields[1:])
	if err != nil {
		if werr := writeErr(w, err); werr != nil {
			return werr
		}
		if string(cmd) == wireVerbs[OpPut] {
			// The refused header's payload is still in the stream and
			// must not be parsed as commands: close.
			return err
		}
		return nil
	}
	if req.Kind == OpPut {
		// The payload follows the header line verbatim. Do keeps none of
		// it (Request.Data), so the next put may reuse the buffer.
		if int64(cap(*payload)) < req.Size {
			*payload = make([]byte, req.Size)
		}
		req.Data = (*payload)[:req.Size]
		if _, err := io.ReadFull(r, req.Data); err != nil {
			return err
		}
		req.Size = 0
	}
	resp, err := (*sess).Do(req)
	if err != nil {
		return writeErr(w, err)
	}
	suffix := ""
	if resp.Batched {
		suffix = "batched"
	}
	// A half-written response desynchronises the stream: the peer can no
	// longer tell status lines from payload bytes, so any write failure
	// from here on is fatal for the connection — close, never serve the
	// next command on a desynced stream.
	if err := writeStatus(w, resp.N, suffix); err != nil {
		return err
	}
	if req.Kind == OpGet {
		if _, err := w.Write(resp.Data); err != nil {
			return err
		}
	}
	return w.Flush()
}

// parseReq decodes a request's header line (one of wireVerbs and its
// decimal arguments) into a Request.
func parseReq(cmd []byte, args [][]byte) (Request, error) {
	bad := func(format string, a ...any) (Request, error) {
		return Request{}, fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, a...)...)
	}
	un := func(b []byte) (uint64, error) { return strconv.ParseUint(string(b), 10, 64) }
	in := func(b []byte) (int64, error) { return strconv.ParseInt(string(b), 10, 64) }
	kind := OpKind(len(wireVerbs)) // no such verb: a kind no case below matches
	for k, verb := range wireVerbs[:] {
		if string(cmd) == verb {
			kind = OpKind(k)
			break
		}
	}
	switch kind {
	case OpPut, OpGet:
		if len(args) != 3 {
			return bad("%s wants key offset len", cmd)
		}
		key, err1 := un(args[0])
		off, err2 := in(args[1])
		n, err3 := in(args[2])
		if err1 != nil || err2 != nil || err3 != nil || off < 0 || n < 0 || n > maxTransferBytes || off > math.MaxInt64-n {
			return bad("%s arguments out of range", cmd)
		}
		return Request{Kind: kind, Key: key, Offset: off, Size: n}, nil
	case OpTruncate:
		if len(args) != 2 {
			return bad("trunc wants key size")
		}
		key, err1 := un(args[0])
		n, err2 := in(args[1])
		if err1 != nil || err2 != nil || n < 0 {
			return bad("trunc arguments out of range")
		}
		return Request{Kind: kind, Key: key, Size: n}, nil
	case OpDelete:
		if len(args) != 1 {
			return bad("del wants key")
		}
		key, err := un(args[0])
		if err != nil {
			return bad("del key out of range")
		}
		return Request{Kind: kind, Key: key}, nil
	case OpSync:
		if len(args) != 0 {
			return bad("sync wants no arguments")
		}
		return Request{Kind: kind}, nil
	default:
		return bad("unknown command %q", cmd)
	}
}

// readLine reads one newline-terminated header line, capped at
// maxLineBytes (the reader's buffer size), and appends its
// whitespace-separated fields to dst, exactly as strings.Fields splits
// them. The fields alias r's buffer and are valid until r's next read. A
// line that fills the buffer without its newline is rejected as
// ErrLineTooLong rather than buffered without bound.
func readLine(r *bufio.Reader, dst [][]byte) ([][]byte, error) {
	line, err := r.ReadSlice('\n')
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		return nil, ErrLineTooLong
	default:
		return nil, err
	}
	start := -1 // the open field's first byte; the newline closes the last
	for i, c := range line {
		if c >= utf8.RuneSelf {
			// Unicode spaces separate fields too: leave such a line to
			// bytes.Fields.
			return append(dst[:0], bytes.Fields(line)...), nil
		}
		space := c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
		if space && start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		} else if !space && start < 0 {
			start = i
		}
	}
	return dst, nil
}

// writeStatus buffers one "ok" status line, failing fast on a write
// error so the caller never follows a broken header with payload bytes.
func writeStatus(w *bufio.Writer, n int, suffix string) error {
	b := append(w.AvailableBuffer(), "ok "...)
	b = strconv.AppendInt(b, int64(n), 10)
	if suffix != "" {
		b = append(append(b, ' '), suffix...)
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

// writeOK writes and flushes one "ok" status line; the returned error is
// fatal for the connection (a half-written status cannot be retried —
// the stream is desynced).
func writeOK(w *bufio.Writer, n int, suffix string) error {
	if err := writeStatus(w, n, suffix); err != nil {
		return err
	}
	return w.Flush()
}

// writeErr reports a request-level error to the peer; the returned
// error is the flush result (an I/O failure ends the connection).
func writeErr(w *bufio.Writer, err error) error {
	code := wireErrors[len(wireErrors)-1].code
	for _, we := range wireErrors {
		if errors.Is(err, we.err) {
			code = we.code
			break
		}
	}
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	if _, werr := fmt.Fprintf(w, "err %s %s\n", code, msg); werr != nil {
		return werr
	}
	return w.Flush()
}
