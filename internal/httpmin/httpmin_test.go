package httpmin

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/tcpsim"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{Method: "GET", Path: "/"}
	req.SetHeader("Host", "192.0.2.1")
	req.SetHeader("Connection", "close")
	wire := req.Marshal()
	if want := "GET / HTTP/1.1\r\nConnection: close\r\nHost: 192.0.2.1\r\n\r\n"; string(wire) != want {
		t.Errorf("request on the wire = %q, want %q (headers in name order)", wire, want)
	}
	got, err := ParseRequest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Path != "/" || got.Header("host") != "192.0.2.1" {
		t.Errorf("parsed = %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{StatusCode: 302, Body: []byte("moved")}
	resp.SetHeader("Location", RedirectTarget)
	wire := resp.Marshal()
	got, err := ParseResponse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 302 || got.Header("Location") != RedirectTarget {
		t.Errorf("parsed = %+v", got)
	}
	if string(got.Body) != "moved" {
		t.Errorf("body = %q", got.Body)
	}
	if got.Header("Content-Length") != "5" {
		t.Errorf("content-length = %q", got.Header("Content-Length"))
	}
	// Marshalling what was parsed replaces the length, never repeats it.
	got.Body = []byte("moved again")
	if again := got.Marshal(); bytes.Count(again, []byte("Content-Length")) != 1 ||
		!bytes.Contains(again, []byte("Content-Length: 11\r\n")) {
		t.Errorf("re-marshalled = %q", again)
	}
}

func TestParseIncomplete(t *testing.T) {
	resp := &Response{StatusCode: 200, Body: []byte("hello world")}
	wire := resp.Marshal()
	for cut := 1; cut < len(wire); cut++ {
		_, err := ParseResponse(wire[:cut])
		if err == nil {
			t.Fatalf("truncation at %d parsed fully", cut)
		}
		if !errors.Is(err, ErrIncomplete) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("unexpected error at %d: %v", cut, err)
		}
	}
	// Specifically: complete headers, partial body → incomplete.
	head := bytes.Index(wire, []byte("\r\n\r\n"))
	if _, err := ParseResponse(wire[:head+6]); !errors.Is(err, ErrIncomplete) {
		t.Errorf("partial body: %v", err)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"NOT-HTTP\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeader\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ParseResponse([]byte(c)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseResponse(%q) = %v, want malformed", c, err)
		}
	}
	if _, err := ParseRequest([]byte("GARBAGE LINE\r\n\r\n")); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad request line: %v", err)
	}
}

// TestStatusCodeIsThreeDigits: a status code is exactly three digits,
// the first non-zero (RFC 9110 §15). Nothing wider reaches a dataset
// row's two bytes — atoi once took up to 18 digits — and no code reads
// as the row's "no response" 0.
func TestStatusCodeIsThreeDigits(t *testing.T) {
	for _, code := range []string{"100", "302", "999"} {
		resp, err := ParseResponse([]byte("HTTP/1.1 " + code + " X\r\n\r\n"))
		if err != nil || strconv.Itoa(resp.StatusCode) != code {
			t.Errorf("status %s parsed to %v, %v", code, resp, err)
		}
	}
	for _, code := range []string{"", "20", "2000", "65736", "000000000200", "099", "000", "-20", "+20"} {
		if resp, err := ParseResponse([]byte("HTTP/1.1 " + code + " X\r\n\r\n")); !errors.Is(err, ErrMalformed) {
			t.Errorf("status %q parsed to %v, %v; want malformed", code, resp, err)
		}
	}
}

func TestHeaderCanonicalisation(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\ncontent-length: 0\r\nLOCATION: x\r\n\r\n"
	got, err := ParseResponse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header("Content-Length") != "0" || got.Header("Location") != "x" {
		t.Errorf("headers = %q", got.head)
	}
	if got.Header("Server") != "" {
		t.Errorf("absent header = %q", got.Header("Server"))
	}
}

func TestPoolHandler(t *testing.T) {
	resp := PoolHandler(&Request{Method: "GET", Path: "/"})
	if resp.StatusCode != 302 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if resp.Header("Location") != RedirectTarget {
		t.Errorf("location = %q", resp.Header("Location"))
	}
	want := "HTTP/1.1 302 Found\r\nConnection: close\r\nContent-Length: 45\r\n" +
		"Location: http://www.pool.ntp.org/\r\nServer: pool-member/1.0\r\n\r\n" +
		"<a href=\"http://www.pool.ntp.org/\">Moved</a>\n"
	if got := string(resp.Marshal()); got != want {
		t.Errorf("pool response on the wire = %q, want %q", got, want)
	}
}

// --- over the simulated network -----------------------------------------

type httpFixture struct {
	sim            *netsim.Sim
	client, server *netsim.Host
	cs, ss         *tcpsim.Stack
}

// keep returns a done callback that stores a deep copy of the result: a
// GetResult is only valid during the callback.
func keep(dst *GetResult) func(GetResult) {
	return func(r GetResult) {
		*dst = r
		if r.Response != nil {
			cp := *r.Response
			cp.Body = append([]byte(nil), cp.Body...)
			cp.head = append([]byte(nil), cp.head...)
			dst.Response = &cp
		}
	}
}

func newHTTPFixture(t testing.TB, seed int64) *httpFixture {
	t.Helper()
	sim := netsim.NewSim(seed)
	n := netsim.NewNetwork(sim)
	r := n.AddRouter("r", packet.AddrFrom4(10, 255, 0, 1), 64500)
	client, _ := n.AddHost("client", packet.AddrFrom4(10, 0, 0, 1))
	server, _ := n.AddHost("server", packet.AddrFrom4(10, 0, 1, 1))
	n.Attach(client, r, time.Millisecond, 0)
	n.Attach(server, r, time.Millisecond, 0)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return &httpFixture{sim: sim, client: client, server: server,
		cs: tcpsim.NewStack(client), ss: tcpsim.NewStack(server)}
}

func TestGetAgainstPoolServer(t *testing.T) {
	f := newHTTPFixture(t, 1)
	if _, err := Serve(f.ss, Port, true, PoolHandler); err != nil {
		t.Fatal(err)
	}
	var got GetResult
	Get(f.cs, f.server.Addr(), Port, "/", false, keep(&got))
	f.sim.Run()

	if got.Err != nil {
		t.Fatalf("GET failed: %v", got.Err)
	}
	if got.Response.StatusCode != 302 {
		t.Errorf("status = %d", got.Response.StatusCode)
	}
	if got.ECNNegotiated {
		t.Error("ECN negotiated without request")
	}
}

func TestGetWithECN(t *testing.T) {
	f := newHTTPFixture(t, 2)
	Serve(f.ss, Port, true, PoolHandler)
	var got GetResult
	Get(f.cs, f.server.Addr(), Port, "/", true, keep(&got))
	f.sim.Run()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !got.ECNNegotiated {
		t.Error("ECN-capable server did not negotiate")
	}
	if got.Response == nil || got.Response.StatusCode != 302 {
		t.Error("no valid response over ECN connection")
	}
}

func TestGetECNRefusedStillWorks(t *testing.T) {
	f := newHTTPFixture(t, 3)
	Serve(f.ss, Port, false, PoolHandler) // web server, ECN-unwilling
	var got GetResult
	Get(f.cs, f.server.Addr(), Port, "/", true, keep(&got))
	f.sim.Run()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.ECNNegotiated {
		t.Error("negotiated with unwilling server")
	}
	if got.Response.StatusCode != 302 {
		t.Error("HTTP failed despite ECN refusal")
	}
}

func TestGetNoWebServer(t *testing.T) {
	f := newHTTPFixture(t, 4)
	var got GetResult
	Get(f.cs, f.server.Addr(), Port, "/", false, keep(&got))
	f.sim.Run()
	if !errors.Is(got.Err, tcpsim.ErrRefused) {
		t.Errorf("err = %v, want refused", got.Err)
	}
}

func TestGetOfflineHost(t *testing.T) {
	f := newHTTPFixture(t, 5)
	f.server.SetOnline(false)
	var got GetResult
	Get(f.cs, f.server.Addr(), Port, "/", false, keep(&got))
	f.sim.Run()
	if !errors.Is(got.Err, tcpsim.ErrTimeout) {
		t.Errorf("err = %v, want timeout", got.Err)
	}
}

func TestGetUnderLoss(t *testing.T) {
	f := newHTTPFixture(t, 6)
	Serve(f.ss, Port, true, PoolHandler)
	f.client.Uplink().SetLossBoth(0.25)
	success := 0
	const tries = 20
	var run func(i int)
	run = func(i int) {
		if i == tries {
			return
		}
		Get(f.cs, f.server.Addr(), Port, "/", true, func(r GetResult) {
			if r.Err == nil && r.Response != nil && r.Response.StatusCode == 302 {
				success++
			}
			run(i + 1)
		})
	}
	run(0)
	f.sim.Run()
	// TCP retransmission conceals most loss ("TCP retransmits conceal
	// the impact of packet loss" — §4.3). Expect high success.
	if success < tries*3/4 {
		t.Errorf("only %d/%d GETs succeeded under 25%% loss", success, tries)
	}
}

func TestLargeResponseBody(t *testing.T) {
	f := newHTTPFixture(t, 7)
	big := bytes.Repeat([]byte("x"), 5000) // multiple segments
	Serve(f.ss, Port, false, func(req *Request) *Response {
		return &Response{StatusCode: 200, Body: big}
	})
	var got GetResult
	Get(f.cs, f.server.Addr(), Port, "/big", false, keep(&got))
	f.sim.Run()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !bytes.Equal(got.Response.Body, big) {
		t.Errorf("body = %d bytes, want %d", len(got.Response.Body), len(big))
	}
}
