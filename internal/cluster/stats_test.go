package cluster_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"ssmobile/internal/cluster"
	"ssmobile/internal/server"
)

// TestWireStatsOverACluster: the wire's stats verb, served by a TCP
// front end over a cluster, answers the router's logical accounting
// (Cluster.Stats), one count per request however many nodes it reached.
func TestWireStatsOverACluster(t *testing.T) {
	cl := newTestCluster(t, 2, cluster.Config{})
	tcp := server.NewTCP(cl)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer tcp.Shutdown()
	addr := tcp.Addr().String()
	c, err := server.DialOpts(addr, "t", server.ClientOptions{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const puts = 5
	for k := uint64(0); k < puts; k++ {
		if _, err := c.Put(k, 0, payloadFor(k, 1)); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}

	conn, err := net.DialTimeout("tcp", addr, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := fmt.Fprint(conn, "hello t\nstats\n"); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if line, err := r.ReadString('\n'); err != nil || line != "ok 0\n" {
		t.Fatalf("hello: %q, %v", line, err)
	}
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Completed != puts || st.Shed != 0 {
		t.Fatalf("Cluster.Stats() = %+v, want %d completed and none shed", st, puts)
	}
	if want := fmt.Sprintf("ok 0 completed=%d shed=0\n", st.Completed); line != want {
		t.Fatalf("stats: %q, want %q", line, want)
	}
}
