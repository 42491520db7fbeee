// Package httpmin is a small HTTP/1.1 implementation sufficient for the
// study's TCP measurement: a GET client and a server, running over the
// tcpsim stack.
//
// Hosts in the NTP pool are encouraged to run a web server that redirects
// to www.pool.ntp.org; the paper issues "an HTTP GET request for the root
// page of the server" and records whether and what the server answers.
// PoolHandler reproduces the redirect behaviour; Get reproduces the
// probe, reporting both the HTTP outcome and whether the underlying TCP
// connection negotiated ECN.
package httpmin

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Errors surfaced by the codec.
var (
	ErrMalformed  = errors.New("httpmin: malformed message")
	ErrIncomplete = errors.New("httpmin: incomplete message")
)

// Request is an HTTP request (only GET is exercised).
type Request struct {
	Method string
	Path   string
	headers
}

// Response is an HTTP response.
type Response struct {
	StatusCode int
	Status     string
	Body       []byte
	headers
	// wire caches Marshal's output for the package's own immutable
	// PoolHandler response.
	wire []byte
}

// headers is a message's raw header block — CRLF-terminated
// "Name: value" lines, as on the wire. Nobody reads most headers, so
// none is decoded until Header asks for it.
type headers struct{ head []byte }

// Header returns the value of the named header (matched
// case-insensitively), or "" when it is absent.
func (h *headers) Header(name string) string {
	for block := h.head; len(block) > 0; {
		n, value, rest, _ := cutHeader(block)
		if compareFold(n, name) == 0 {
			return string(value)
		}
		block = rest
	}
	return ""
}

// SetHeader sets the named header, replacing any earlier value.
func (h *headers) SetHeader(name, value string) { h.head = setHeader(nil, h.head, name, value) }

// Marshal renders the request on the wire. The message is assembled
// with plain appends into one exact buffer — no fmt machinery.
func (r *Request) Marshal() []byte {
	b := make([]byte, 0, len(r.Method)+len(r.Path)+12+len(r.head)+2)
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = append(b, r.head...)
	return append(b, "\r\n"...)
}

// Marshal renders the response on the wire, always emitting an accurate
// Content-Length so the peer can find the message end.
func (r *Response) Marshal() []byte {
	if r.wire != nil {
		return r.wire
	}
	status := r.Status
	if status == "" {
		status = defaultStatusText(r.StatusCode)
	}
	b := make([]byte, 0, 9+4+len(status)+2+len(r.head)+16+20+4+len(r.Body))
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, "\r\n"...)
	b = setHeader(b, r.head, "Content-Length", strconv.Itoa(len(r.Body)))
	b = append(b, "\r\n"...)
	return append(b, r.Body...)
}

func defaultStatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 302:
		return "Found"
	case 404:
		return "Not Found"
	default:
		return "Status"
	}
}

// ParseRequest decodes a request once fully buffered. It returns
// ErrIncomplete while more bytes are needed. The result's headers alias
// data.
func ParseRequest(data []byte) (*Request, error) {
	r := new(Request)
	if err := r.parse(data); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseResponse decodes a response. It returns ErrIncomplete until the
// header block and the Content-Length-delimited body have arrived. The
// result's headers and Body alias data.
func ParseResponse(data []byte) (*Response, error) {
	r := new(Response)
	if err := r.parse(data); err != nil {
		return nil, err
	}
	return r, nil
}

// parse is ParseRequest into an existing Request. It walks the raw
// bytes and builds nothing: the probe's own "GET" and "/" convert to
// strings without allocating.
func (r *Request) parse(data []byte) error {
	first, head, _, ok := splitMessage(data)
	if !ok {
		return ErrIncomplete
	}
	method, after, ok1 := bytes.Cut(first, []byte(" "))
	path, proto, ok2 := bytes.Cut(after, []byte(" "))
	if !ok1 || !ok2 || !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
		return fmt.Errorf("%w: request line %q", ErrMalformed, first)
	}
	if _, err := checkHeaders(head); err != nil {
		return err
	}
	*r = Request{Method: knownOr(method, "GET"), Path: knownOr(path, "/"), headers: headers{head}}
	return nil
}

// parse is ParseResponse into an existing Response: status code and
// Content-Length are read from the bytes, and Body is a view of data.
func (r *Response) parse(data []byte) error {
	first, head, rest, ok := splitMessage(data)
	if !ok {
		return ErrIncomplete
	}
	proto, after, ok1 := bytes.Cut(first, []byte(" "))
	if !ok1 || !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
		return fmt.Errorf("%w: status line %q", ErrMalformed, first)
	}
	// A status code is three digits (RFC 9110 §15), the first of them
	// its class: 100..999, which is what a dataset row has room for,
	// and never 0, which a row reads as "no response".
	codeBytes, statusBytes, _ := bytes.Cut(after, []byte(" "))
	code, ok := atoi(codeBytes)
	if !ok || len(codeBytes) != 3 || codeBytes[0] == '0' {
		return fmt.Errorf("%w: status code %q", ErrMalformed, codeBytes)
	}
	bodyLen, err := checkHeaders(head)
	if err != nil {
		return err
	}
	if len(rest) < bodyLen {
		return ErrIncomplete
	}
	*r = Response{
		StatusCode: code,
		Status:     knownOr(statusBytes, defaultStatusText(code)),
		Body:       rest[:bodyLen],
		headers:    headers{head},
	}
	return nil
}

// knownOr converts b to a string, without allocating when it is the
// expected value.
func knownOr(b []byte, expected string) string {
	if string(b) == expected {
		return expected
	}
	return string(b)
}

// atoi parses a non-negative decimal number.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// splitMessage separates the start line, the header block (each line
// with its CRLF) and whatever follows the blank line.
func splitMessage(data []byte) (first, head, rest []byte, ok bool) {
	idx := bytes.Index(data, []byte("\r\n\r\n"))
	if idx < 0 {
		return nil, nil, nil, false
	}
	first, head = cutLine(data[:idx+2])
	return first, head, data[idx+4:], true
}

// cutLine splits off the first CRLF-terminated line.
func cutLine(data []byte) (line, rest []byte) {
	if i := bytes.Index(data, []byte("\r\n")); i >= 0 {
		return data[:i], data[i+2:]
	}
	return data, nil
}

// cutHeader splits the first line off a header block into its trimmed
// name and value; ok is false for a line without a colon.
func cutHeader(block []byte) (name, value, rest []byte, ok bool) {
	line, rest := cutLine(block)
	name, value, ok = bytes.Cut(line, []byte(":"))
	return bytes.TrimSpace(name), bytes.TrimSpace(value), rest, ok
}

// checkHeaders checks that every line of a header block is
// "Name: value" and returns the Content-Length (0 when absent).
func checkHeaders(block []byte) (contentLength int, err error) {
	for len(block) > 0 {
		name, value, rest, ok := cutHeader(block)
		if !ok {
			line, _ := cutLine(block)
			return 0, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		if compareFold(name, "Content-Length") == 0 {
			if contentLength, ok = atoi(value); !ok {
				return 0, fmt.Errorf("%w: content-length %q", ErrMalformed, value)
			}
		}
		block = rest
	}
	return contentLength, nil
}

// setHeader appends block to b with the line "name: value" placed in
// name order — blocks built by setHeader alone are sorted, which keeps
// wire output deterministic (the simulator's reproducibility guarantee
// extends to payload bytes) — and any earlier line of that name dropped.
func setHeader(b, block []byte, name, value string) []byte {
	placed := false
	for len(block) > 0 {
		n, _, rest, _ := cutHeader(block)
		line := block[:len(block)-len(rest)]
		block = rest
		c := compareFold(n, name)
		if c == 0 {
			continue
		}
		if c > 0 && !placed {
			b = appendHeader(b, name, value)
			placed = true
		}
		b = append(b, line...)
	}
	if !placed {
		b = appendHeader(b, name, value)
	}
	return b
}

func appendHeader(b []byte, name, value string) []byte {
	b = append(b, name...)
	b = append(b, ": "...)
	b = append(b, value...)
	return append(b, "\r\n"...)
}

// compareFold orders a header name against another, ignoring ASCII case.
func compareFold(a []byte, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if x, y := lower(a[i]), lower(b[i]); x != y {
			return int(x) - int(y)
		}
	}
	return len(a) - len(b)
}

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// RedirectTarget is where pool-member web servers redirect.
const RedirectTarget = "http://www.pool.ntp.org/"

// PoolHandler answers as a pool host's web server does: a 302 redirect
// to the pool website for any path. The response is one shared
// immutable value, marshalled once, so answering costs no allocation in
// the campaign's per-server request loop.
func PoolHandler(req *Request) *Response {
	return poolResponse
}

var poolResponse = func() *Response {
	r := &Response{
		StatusCode: 302,
		Body:       []byte("<a href=\"" + RedirectTarget + "\">Moved</a>\n"),
	}
	r.SetHeader("Location", RedirectTarget)
	r.SetHeader("Connection", "close")
	r.SetHeader("Server", "pool-member/1.0")
	r.wire = r.Marshal()
	return r
}()
