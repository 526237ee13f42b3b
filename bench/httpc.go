package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is a minimal HTTP/1.1 client over one keep-alive connection. It
// exists so that the load the harness generates costs the process next to
// nothing: a request is one preformatted write, a response is parsed in
// place, and the steady state allocates nothing — which keeps the
// allocation and CPU figures the program's own. It understands exactly
// what ctlplane sends: a status line, headers with a Content-Length, a body.
type httpConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 16<<10), body: make([]byte, 0, 16<<10)}, nil
}

func (h *httpConn) close() { h.conn.Close() }

// get performs GET path and returns the status and the body, which is
// valid until the next call.
func (h *httpConn) get(path string) (int, []byte, error) {
	h.req = append(h.req[:0], "GET "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: "...)
	h.req = append(h.req, h.addr...)
	h.req = append(h.req, "\r\n\r\n"...)
	return h.roundTrip()
}

// post performs POST path with a JSON body.
func (h *httpConn) post(path string, body []byte) (int, []byte, error) {
	h.req = append(h.req[:0], "POST "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: "...)
	h.req = append(h.req, h.addr...)
	h.req = append(h.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.req = strconv.AppendInt(h.req, int64(len(body)), 10)
	h.req = append(h.req, "\r\n\r\n"...)
	h.req = append(h.req, body...)
	return h.roundTrip()
}

var errNoLength = errors.New("response without Content-Length")

func (h *httpConn) roundTrip() (int, []byte, error) {
	if err := h.conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := h.conn.Write(h.req); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 202 Accepted"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const key = "content-length:"
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			v := bytes.TrimSpace(line[len(key):])
			length = 0
			for _, ch := range v {
				if ch < '0' || ch > '9' {
					return 0, nil, fmt.Errorf("bad Content-Length %q", v)
				}
				length = length*10 + int(ch-'0')
			}
		}
	}
	if length < 0 {
		return status, nil, errNoLength
	}
	if cap(h.body) < length {
		h.body = make([]byte, 0, 2*length)
	}
	h.body = h.body[:length]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return 0, nil, err
	}
	return status, h.body, nil
}
