package httpmin

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The codec must be genuine wire-format HTTP: exchange with Go's
// net/http server over a real loopback TCP connection.
func TestInteropWithStdlibServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()

	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Behave like a pool host: redirect to the pool site.
		w.Header().Set("Location", RedirectTarget)
		w.WriteHeader(http.StatusFound)
		io.WriteString(w, "moved\n")
	})}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := Request{Method: "GET", Path: "/"}
	req.SetHeader("Host", ln.Addr().String())
	req.SetHeader("Connection", "close")
	if _, err := conn.Write(req.Marshal()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))

	var buf []byte
	tmp := make([]byte, 4096)
	for {
		n, rerr := conn.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if resp, perr := ParseResponse(buf); perr == nil {
			if resp.StatusCode != 302 {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if resp.Header("Location") != RedirectTarget {
				t.Fatalf("location = %q", resp.Header("Location"))
			}
			if !strings.Contains(string(resp.Body), "moved") {
				t.Fatalf("body = %q", resp.Body)
			}
			return // success
		} else if !errors.Is(perr, ErrIncomplete) {
			t.Fatalf("parse: %v (buffer %q)", perr, buf)
		}
		if rerr != nil {
			t.Fatalf("connection ended before full response: %v (buffer %q)", rerr, buf)
		}
	}
}

// The server side of the codec must satisfy a stdlib http.Client.
func TestInteropServeStdlibClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()

	// A tiny accept loop speaking via the httpmin codec over real conns.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var buf []byte
				tmp := make([]byte, 4096)
				for {
					n, rerr := c.Read(tmp)
					buf = append(buf, tmp[:n]...)
					if req, perr := ParseRequest(buf); perr == nil {
						resp := PoolHandler(req)
						c.Write(resp.Marshal())
						return
					} else if !errors.Is(perr, ErrIncomplete) || rerr != nil {
						return
					}
				}
			}(conn)
		}
	}()

	client := &http.Client{
		Timeout: 3 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse // don't follow the redirect
		},
	}
	resp, err := client.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("stdlib client against httpmin server: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 302 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != RedirectTarget {
		t.Errorf("location = %q", got)
	}
}
