// Regression tests for the drain's write-side bound and the polite-quit
// path: Shutdown must not hang on a peer that stops reading mid-response
// (the grace deadline covers writes, not just reads), and a client
// closing with "quit" during a drain still gets its clean "ok" goodbye.
// Both poke at unexported state (drainGrace, the draining flag), so they
// live in the package like the desync tests.
package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// listenStub serves a stubService over a loopback listener.
func listenStub(t *testing.T, svc *stubService) *TCP {
	t.Helper()
	tcp := NewTCP(svc)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return tcp
}

// helloStub dials the listener and completes the hello handshake.
func helloStub(t *testing.T, tcp *TCP) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "hello t\n")
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ok 0" {
		t.Fatalf("hello: %q, %v", line, err)
	}
	return conn, r
}

// TestShutdownCutsStalledResponseWrite pins the write-side drain bound:
// a handler blocked writing a large GET response to a peer that has
// stopped reading must be cut after drainGrace, so Shutdown returns
// instead of hanging on wg.Wait forever (pre-fix, only the read side
// carried the grace deadline).
func TestShutdownCutsStalledResponseWrite(t *testing.T) {
	oldGrace := drainGrace
	drainGrace = 300 * time.Millisecond
	defer func() { drainGrace = oldGrace }()

	// An object far larger than the kernel socket buffers, so the
	// response write must block once the peer stops reading.
	const size = 64 << 20
	svc := &stubService{sess: stubSession{objects: map[uint64][]byte{1: make([]byte, size)}}}
	tcp := listenStub(t, svc)
	conn, _ := helloStub(t, tcp)
	defer conn.Close()

	fmt.Fprintf(conn, "get 1 0 %d\n", size)
	// Never read the response; give the handler time to fill the socket
	// buffers and park inside the payload write.
	time.Sleep(200 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- tcp.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on a stalled response write")
	}
}

// TestQuitDuringDrainAnsweredCleanly pins the polite-close path: a
// client sending "quit" while the service drains gets the clean "ok"
// goodbye (pre-fix it got "err draining"), while any other command
// during the drain still gets the typed draining error.
func TestQuitDuringDrainAnsweredCleanly(t *testing.T) {
	tcp := listenStub(t, &stubService{})
	defer tcp.ln.Close()
	quitConn, quitR := helloStub(t, tcp)
	defer quitConn.Close()
	cmdConn, cmdR := helloStub(t, tcp)
	defer cmdConn.Close()

	// Enter the drain without Shutdown's deadlines or wg.Wait: this is
	// exactly the window where a buffered command line is read after the
	// drain flag goes up. Both handlers must be between commands when it
	// does: the hello reply is written before its endCmd runs, and a drain
	// that endCmd sees closes the connection instead of reading "quit".
	for raised := false; !raised; runtime.Gosched() {
		tcp.mu.Lock()
		idle := true
		for _, st := range tcp.conns {
			idle = idle && !st.inCmd
		}
		tcp.draining, raised = idle, idle
		tcp.mu.Unlock()
	}

	fmt.Fprintf(quitConn, "quit\n")
	quitConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := quitR.ReadString('\n')
	if err != nil {
		t.Fatalf("quit during drain got no response: %v", err)
	}
	if strings.TrimSpace(line) != "ok 0" {
		t.Fatalf("quit during drain answered %q, want \"ok 0\"", line)
	}

	fmt.Fprintf(cmdConn, "sync\n")
	cmdConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err = cmdR.ReadString('\n')
	if err != nil {
		t.Fatalf("command during drain got no response: %v", err)
	}
	if !strings.HasPrefix(line, "err draining") {
		t.Fatalf("command during drain answered %q, want err draining", line)
	}
}
