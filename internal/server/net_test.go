// Regression tests for the TCP protocol/lifecycle bugs the cluster work
// exposed: the drain race that cut mid-payload requests, the unbounded
// header-line read, and the client's missing I/O deadlines. Each test
// fails against the pre-fix implementation.
package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"ssmobile/internal/core"
	"ssmobile/internal/server"
)

// dialRaw opens a raw protocol connection and performs the hello
// handshake, returning the conn and a buffered reader over it.
func dialRaw(t *testing.T, addr, tenant string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "hello %s\n", tenant); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line) != "ok 0" {
		t.Fatalf("hello: got %q", line)
	}
	return conn, r
}

func listenTCP(t *testing.T) (*server.Server, *server.TCP) {
	t.Helper()
	_, srv := newStack(t, core.SolidStateConfig{})
	tcp := server.NewTCP(srv)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv, tcp
}

// TestShutdownWaitsForInFlightPayload pins the drain-race fix: a PUT
// whose header line the server has read but whose payload is still in
// flight when Shutdown begins must complete and get its "ok" response —
// the shutdown wake-up deadline must not cut the mid-payload read.
func TestShutdownWaitsForInFlightPayload(t *testing.T) {
	_, tcp := listenTCP(t)
	conn, r := dialRaw(t, tcp.Addr().String(), "drain")
	defer conn.Close()

	const size = 256 << 10
	payload := bytes.Repeat([]byte{0x5a}, size)
	if _, err := fmt.Fprintf(conn, "put 1 0 %d\n", size); err != nil {
		t.Fatal(err)
	}
	// First half of the payload, then a pause long enough for the server
	// to park inside the payload read before the drain begins.
	if _, err := conn.Write(payload[:size/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- tcp.Shutdown() }()
	time.Sleep(100 * time.Millisecond) // let Shutdown fire its deadlines

	if _, err := conn.Write(payload[size/2:]); err != nil {
		t.Fatalf("writing second half mid-drain: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("in-flight put died during drain: %v", err)
	}
	if want := fmt.Sprintf("ok %d", size); strings.TrimSpace(line) != want {
		t.Fatalf("in-flight put during drain: got %q, want %q", line, want)
	}
	// The connection must not serve another command once drained: either
	// a clean "err draining" or a close is acceptable, never an "ok".
	fmt.Fprintf(conn, "sync\n")
	if line, err := r.ReadString('\n'); err == nil && !strings.HasPrefix(line, "err draining") {
		t.Fatalf("post-drain command answered %q, want err draining or close", line)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownRejectsNewCommandCleanly pins the other half of the drain
// contract: a command line read after the drain begins gets the typed
// draining error, not a silent close.
func TestShutdownRejectsNewCommandCleanly(t *testing.T) {
	_, tcp := listenTCP(t)
	conn, r := dialRaw(t, tcp.Addr().String(), "drain2")
	defer conn.Close()

	// Park the connection idle, then drain. The wake-up deadline makes
	// the idle read fail server-side; a command already in the client's
	// send buffer when the drain lands must still be answered "draining"
	// if the server happens to read it first — both outcomes (clean error
	// or close) are legal, an "ok" is not.
	done := make(chan error, 1)
	go func() { done <- tcp.Shutdown() }()
	fmt.Fprintf(conn, "sync\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := r.ReadString('\n'); err == nil && strings.HasPrefix(line, "ok") {
		t.Fatalf("command during drain answered %q", line)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestOverlongHeaderLineRejected pins the readLine cap: a header line
// with no newline in sight must be rejected with the typed protocol
// error instead of buffering without bound.
func TestOverlongHeaderLineRejected(t *testing.T) {
	_, tcp := listenTCP(t)
	defer tcp.Shutdown()
	conn, r := dialRaw(t, tcp.Addr().String(), "longline")
	defer conn.Close()

	junk := bytes.Repeat([]byte{'a'}, 64<<10) // 64KB, no newline
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no response to an overlong line (pre-fix behaviour buffers forever): %v", err)
	}
	if !strings.HasPrefix(line, "err bad") || !strings.Contains(line, "line exceeds") {
		t.Fatalf("overlong line: got %q, want an err bad ... line exceeds response", line)
	}
	// Framing is lost, so the server must close rather than reinterpret
	// the rest of the junk as commands.
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after an overlong line")
	}
}

// TestClientTimeoutOnStalledServer pins the client deadline fix: a
// listener that accepts but never answers must fail the round trip with
// the typed ErrTimeout instead of blocking the caller forever.
func TestClientTimeoutOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { // swallow input, never respond
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	start := time.Now()
	_, err = server.DialOpts(ln.Addr().String(), "stalled", server.ClientOptions{Timeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("dial against a stalled server succeeded")
	}
	if !errors.Is(err, server.ErrTimeout) {
		t.Fatalf("stalled server: got %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
}

// TestClientNoTimeoutStillWorks guards the zero-value path: an untimed
// client against a live server behaves exactly as before.
func TestClientNoTimeoutStillWorks(t *testing.T) {
	_, tcp := listenTCP(t)
	defer tcp.Shutdown()
	cl, err := server.Dial(tcp.Addr().String(), "plain")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(1, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

// TestClientTimeoutRoundTripAgainstLiveServer exercises the timed path
// end to end: deadlines are set per round trip and a healthy server
// never trips them.
func TestClientTimeoutRoundTripAgainstLiveServer(t *testing.T) {
	_, tcp := listenTCP(t)
	defer tcp.Shutdown()
	cl, err := server.DialOpts(tcp.Addr().String(), "timed", server.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := bytes.Repeat([]byte{7}, 8<<10)
	if _, err := cl.Put(3, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(3, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch through timed client")
	}
	if _, err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
}

// dialTimed opens a client whose round trips carry a deadline, so a
// request that hangs the server fails the test instead of the run.
func dialTimed(t *testing.T, tcp *server.TCP, tenant string) *server.Client {
	t.Helper()
	cl, err := server.DialOpts(tcp.Addr().String(), tenant, server.ClientOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestOverflowingPutRefusedOverTCP: a put whose offset+len overflows
// int64 used to be answered "ok 10" while parking the bytes under
// wrapped block indexes no read reaches, the object's size left at 0 —
// an acknowledged write that stored nothing. It is refused.
func TestOverflowingPutRefusedOverTCP(t *testing.T) {
	_, tcp := listenTCP(t)
	defer tcp.Shutdown()
	cl := dialTimed(t, tcp, "overflow")
	if n, err := cl.Put(1, math.MaxInt64-5, make([]byte, 10)); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("overflowing put: n=%d err=%v, want ErrBadRequest", n, err)
	}

	// The refused header's payload must not run as commands: the server
	// closes the connection instead of reading on.
	keep := dialTimed(t, tcp, "overflow")
	if _, err := keep.Put(2, 0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	conn, r := dialRaw(t, tcp.Addr().String(), "overflow")
	defer conn.Close()
	fmt.Fprintf(conn, "put 1 %d 6\ndel 2\n", int64(math.MaxInt64-5))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "err bad") {
		t.Fatalf("overflowing raw put: %q, %v", line, err)
	}
	if line, err := r.ReadString('\n'); err == nil {
		t.Fatalf("server kept reading after a refused put header: %q", line)
	}
	if got, err := keep.Get(2, 0, 4); err != nil || string(got) != "kept" {
		t.Fatalf("payload of the refused put ran as a command: %q, %v", got, err)
	}
}

// TestExtentBoundedByCardOverTCP: trunc used to accept any size (growing
// is free) and the shrink that followed walked the old length's
// block-index range under the server's lock — `trunc k 2^62` then
// `trunc k 0` hung every tenant. An object's extent is now bounded at
// admission by what the card can hold, and a shrink costs the blocks the
// object has.
func TestExtentBoundedByCardOverTCP(t *testing.T) {
	_, tcp := listenTCP(t)
	defer tcp.Shutdown()
	cl := dialTimed(t, tcp, "extent")
	if _, err := cl.Put(2, 0, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Truncate(2, 1<<62); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("trunc past the card: err=%v, want ErrBadRequest", err)
	}
	if _, err := cl.Put(2, 1<<40, []byte("far")); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("put past the card: err=%v, want ErrBadRequest", err)
	}
	// An extent the card admits still grows for free, and shrinks within
	// the client's deadline.
	if err := cl.Truncate(2, 6<<20); err != nil {
		t.Fatalf("trunc within the card: %v", err)
	}
	if err := cl.Truncate(2, 2); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got, err := cl.Get(2, 0, 16); err != nil || string(got) != "ke" {
		t.Fatalf("after shrink: %q, %v", got, err)
	}
}
