package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

type payload struct {
	Op   string `json:"op"`
	Body string `json:"body,omitempty"`
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := payload{Op: "ping", Body: "hello"}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	var out payload
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
	// A second read on the drained buffer is a clean close.
	if err := ReadFrame(&buf, &out); err != io.EOF {
		t.Fatalf("read past end: got %v want io.EOF", err)
	}
}

func TestFrameCapBothSides(t *testing.T) {
	big := payload{Body: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(io.Discard, big); err == nil {
		t.Fatal("WriteFrame accepted an over-cap body")
	}
	// A forged header claiming an over-cap body must be rejected before
	// any allocation of that size.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var v payload
	if err := ReadFrame(bytes.NewReader(hdr[:]), &v); err == nil {
		t.Fatal("ReadFrame accepted an over-cap header")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload{Op: "ping"}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	whole := buf.Bytes()
	// Truncated header (mid-length) and truncated body are both hard
	// errors, not EOF: the peer died mid-frame.
	for _, cut := range []int{2, len(whole) - 3} {
		var v payload
		err := ReadFrame(bytes.NewReader(whole[:cut]), &v)
		if err == nil || err == io.EOF {
			t.Fatalf("truncation at %d: got %v, want a non-EOF error", cut, err)
		}
	}
}

// TestServeLifecycle proves the extracted accept loop: concurrent
// connections each get a handler goroutine, cancellation closes the
// listener, and Serve returns only after every handler drains.
func TestServeLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	echo := func(ctx context.Context, conn net.Conn) error {
		for {
			var req payload
			if err := ReadFrame(conn, &req); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if err := WriteFrame(conn, req); err != nil {
				return err
			}
		}
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, echo, t.Logf) }()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			for j := 0; j < 8; j++ {
				in := payload{Op: "echo", Body: strings.Repeat("z", i+j+1)}
				if err := WriteFrame(conn, in); err != nil {
					t.Errorf("client write: %v", err)
					return
				}
				var out payload
				if err := ReadFrame(conn, &out); err != nil {
					t.Errorf("client read: %v", err)
					return
				}
				if out != in {
					t.Errorf("echo mismatch: got %+v want %+v", out, in)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}

// TestHandleFailsClosed holds the one request loop to its trust
// boundary: a connection that sends a body that is not JSON, or a
// header claiming more than MaxFrame, is closed and its wire: error
// logged, while a well-behaved connection on the same server keeps
// getting answers throughout, and Serve returns nil on cancel even
// with that connection still open.
func TestHandleFailsClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	logged := make(chan string, 8)
	logf := func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) }
	echo := func(_ context.Context, req payload) payload { return payload{Op: "echo", Body: req.Body} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, Handle(echo), logf) }()

	good, err := Dial[payload, payload](ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer good.Close()
	ask := func(body string) {
		t.Helper()
		resp, err := good.Do(payload{Op: "ping", Body: body})
		if err != nil || resp != (payload{Op: "echo", Body: body}) {
			t.Fatalf("well-behaved connection: got %+v, %v", resp, err)
		}
	}
	ask("before")

	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"non-JSON body", append(binary.BigEndian.AppendUint32(nil, 5), "{nope"...), "wire: decoding frame"},
		{"over-cap header", binary.BigEndian.AppendUint32(nil, MaxFrame+1), "exceeds the 4194304-byte cap"},
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		if _, err := conn.Write(tc.raw); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: connection not closed: read %d bytes, %v", tc.name, n, err)
		}
		conn.Close()
		select {
		case line := <-logged:
			if !strings.Contains(line, tc.want) {
				t.Errorf("%s: logged %q, want it to contain %q", tc.name, line, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: nothing logged", tc.name)
		}
		ask("after " + tc.name)
	}

	// Cancel with the well-behaved connection still open and idle: its
	// handler's pending read is unblocked, so Serve drains without the
	// client closing.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation with an idle client connected")
	}
	select {
	case line := <-logged:
		t.Errorf("clean close logged %q", line)
	default:
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it never
// panics, every error is a wire: error (or io.EOF at a clean boundary),
// and whatever it accepts survives WriteFrame → ReadFrame unchanged.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload{Op: "ping"}); err != nil {
		f.Fatalf("WriteFrame: %v", err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	for _, cut := range []int{0, 2, len(whole) - 3} {
		f.Add(whole[:cut])
	}
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 5), "{nope"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var v payload
		err := ReadFrame(bytes.NewReader(data), &v)
		if err == io.EOF {
			if len(data) != 0 {
				t.Fatalf("io.EOF after %d bytes: only a clean boundary may be EOF", len(data))
			}
			return
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "wire: ") {
				t.Fatalf("error without the wire: prefix: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, v); err != nil {
			t.Fatalf("re-encoding accepted frame %+v: %v", v, err)
		}
		var back payload
		if err := ReadFrame(&again, &back); err != nil {
			t.Fatalf("re-reading accepted frame %+v: %v", v, err)
		}
		if back != v {
			t.Fatalf("round trip: got %+v want %+v", back, v)
		}
	})
}
