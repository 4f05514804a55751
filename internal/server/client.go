package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// ErrTimeout reports a client-side network deadline expiring: the node
// is hung, partitioned, or too slow. Callers (the cluster router above
// all) can errors.Is against it to treat the node as unavailable instead
// of blocking forever.
var ErrTimeout = errors.New("server: client i/o timeout")

// ClientOptions configures a Client's network behaviour.
type ClientOptions struct {
	// Timeout bounds the dial and each request round trip (the header
	// write, the payload transfer, and the response read). Zero means no
	// deadline — the pre-cluster behaviour, acceptable only when the peer
	// is trusted to answer eventually.
	Timeout time.Duration
}

// Client speaks the TCP protocol from the other end of the wire,
// mapping wire error codes back onto this package's typed errors so
// callers can errors.Is(err, ErrOverloaded) across the socket. Not safe
// for concurrent use; open one Client per goroutine.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
}

// Dial connects to addr and opens a session for tenant, with no I/O
// deadlines (see DialOpts).
func Dial(addr, tenant string) (*Client, error) {
	return DialOpts(addr, tenant, ClientOptions{})
}

// DialOpts connects to addr and opens a session for tenant under the
// given options. With a Timeout set, a hung or partitioned server makes
// requests fail with ErrTimeout instead of blocking the caller forever.
func DialOpts(addr, tenant string, opts ClientOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, wrapTimeout(err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: opts.Timeout}
	if _, _, err := c.roundTrip(fmt.Sprintf("hello %s\n", tenant), nil); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Put writes data at off in object key; it reports the bytes written.
func (c *Client) Put(key uint64, off int64, data []byte) (int, error) {
	n, _, err := c.roundTrip(formatReq(Request{Kind: OpPut, Key: key, Offset: off, Size: int64(len(data))}), data)
	return n, err
}

// Get reads n bytes at off from object key.
func (c *Client) Get(key uint64, off int64, n int64) ([]byte, error) {
	got, _, err := c.roundTrip(formatReq(Request{Kind: OpGet, Key: key, Offset: off, Size: n}), nil)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, got)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, wrapTimeout(err)
	}
	return buf, nil
}

// Truncate sets object key's length.
func (c *Client) Truncate(key uint64, size int64) error {
	_, _, err := c.roundTrip(formatReq(Request{Kind: OpTruncate, Key: key, Size: size}), nil)
	return err
}

// Delete removes object key (idempotent).
func (c *Client) Delete(key uint64) error {
	_, _, err := c.roundTrip(formatReq(Request{Kind: OpDelete, Key: key}), nil)
	return err
}

// Sync makes the tenant's writes stable; batched reports whether group
// commit absorbed it into an earlier flush.
func (c *Client) Sync() (batched bool, err error) {
	_, suffix, err := c.roundTrip(formatReq(Request{Kind: OpSync}), nil)
	return suffix == "batched", err
}

// Stats fetches the server-side completed/shed counts.
func (c *Client) Stats() (completed, shed int64, err error) {
	_, suffix, err := c.roundTrip("stats\n", nil)
	if err != nil {
		return 0, 0, err
	}
	for _, f := range strings.Fields(suffix) {
		if v, ok := strings.CutPrefix(f, "completed="); ok {
			completed, _ = strconv.ParseInt(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(f, "shed="); ok {
			shed, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return completed, shed, nil
}

// Close ends the session politely and closes the connection.
func (c *Client) Close() error {
	c.roundTrip("quit\n", nil)
	return c.conn.Close()
}

// wrapTimeout folds a network timeout into the package's typed error so
// callers can distinguish "node hung" from "node answered with an
// error"; other errors pass through untouched.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// roundTrip sends one command (plus payload) and decodes the status
// line into (n, suffix) or a typed error. With a timeout configured the
// whole round trip runs under one conn deadline; the deadline also
// covers a Get's payload read, which follows on the same conn before
// the next round trip resets it.
func (c *Client) roundTrip(header string, payload []byte) (int, string, error) {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, "", err
		}
	}
	if _, err := c.w.WriteString(header); err != nil {
		return 0, "", wrapTimeout(err)
	}
	if payload != nil {
		if _, err := c.w.Write(payload); err != nil {
			return 0, "", wrapTimeout(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return 0, "", wrapTimeout(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, "", wrapTimeout(err)
	}
	line = strings.TrimRight(line, "\r\n")
	fields := strings.SplitN(line, " ", 3)
	switch {
	case fields[0] == "ok" && len(fields) >= 2:
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, "", fmt.Errorf("server: malformed status %q", line)
		}
		suffix := ""
		if len(fields) == 3 {
			suffix = fields[2]
		}
		return n, suffix, nil
	case fields[0] == "err" && len(fields) >= 2:
		msg := ""
		if len(fields) == 3 {
			msg = fields[2]
		}
		typed := wireErrors[len(wireErrors)-1].err
		for _, we := range wireErrors {
			if we.code == fields[1] {
				typed = we.err
				break
			}
		}
		return 0, "", fmt.Errorf("%w (%s)", typed, msg)
	default:
		return 0, "", fmt.Errorf("server: malformed status %q", line)
	}
}
