// Package wire is the shared framed-protocol layer: each message is a
// 4-byte big-endian length followed by one JSON object — the simnetd
// lineage (framed datagrams over a stream) with JSON instead of raw
// packets, so every protocol built on it is inspectable with nc and a
// hex dump. One request yields exactly one response; requests on one
// connection are answered in order. Both scentd's query API and the
// campaign coordinator speak this framing through the same three
// pieces, so each exists once: Serve (the goroutine-per-connection
// accept loop), Handle (the decode → answer → encode loop a connection
// runs), and Client (the dialling side's serialised round trip).
package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame caps a single message. Far above any legal request and
// roomy enough for a full vendor census or a streamed shard result
// batch; anything larger is a framing desync or abuse.
const MaxFrame = 4 << 20

// WriteFrame marshals v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encoding frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame into v. io.EOF before the
// first header byte is returned as-is (a clean connection close).
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("wire: reading frame body: %w", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("wire: decoding frame: %w", err)
	}
	return nil
}

// Handler answers one connection's requests until EOF or error. It
// runs on its own goroutine; returning nil means a clean close.
type Handler func(ctx context.Context, conn net.Conn) error

// Serve accepts and handles connections until ctx is cancelled. Each
// connection gets its own goroutine running h. On cancel the listener is
// closed to unblock Accept and every open connection's read deadline is
// set to now, so a handler waiting on an idle client returns; a reply
// already being written completes. Serve returns after every handler
// has drained. A non-nil handler error is reported to logf (when set)
// rather than tearing down the server — one misbehaving client must not
// take the service with it.
func Serve(ctx context.Context, ln net.Listener, h Handler, logf func(format string, args ...any)) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			defer context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })()
			if err := h(ctx, conn); err != nil && logf != nil {
				logf("conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Handle turns a pure request → response function into a Handler: read
// one frame into a fresh Req, write answer's Resp, repeat. A clean EOF,
// or any read ending after ctx did, is a clean close (nil): a request
// read after cancel gets no answer. A bad frame returns its wire: error,
// so Serve logs it and closes only that connection.
func Handle[Req, Resp any](answer func(ctx context.Context, req Req) Resp) Handler {
	return func(ctx context.Context, conn net.Conn) error {
		for {
			var req Req
			err := ReadFrame(conn, &req)
			if errors.Is(err, io.EOF) || ctx.Err() != nil {
				return nil
			}
			if err != nil {
				return err
			}
			if err := WriteFrame(conn, answer(ctx, req)); err != nil {
				return err
			}
		}
	}
}

// Client is one connection's request/response side. Do serialises whole
// round trips under a mutex, so goroutines may share a Client (a
// campaign worker's scan handler and lease renewer do); the protocol is
// one response per request, in order. A transport error leaves the
// connection unusable.
type Client[Req, Resp any] struct {
	mu   sync.Mutex
	conn net.Conn
}

// Dial connects a Client to addr over TCP.
func Dial[Req, Resp any](addr string) (*Client[Req, Resp], error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	return &Client[Req, Resp]{conn: conn}, nil
}

// Do performs one round trip.
func (c *Client[Req, Resp]) Do(req Req) (Resp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp, zero Resp
	if err := WriteFrame(c.conn, req); err != nil {
		return zero, err
	}
	if err := ReadFrame(c.conn, &resp); err != nil {
		return zero, err
	}
	return resp, nil
}

// Close closes the connection.
func (c *Client[Req, Resp]) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
