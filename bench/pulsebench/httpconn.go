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

// conn is one keep-alive HTTP/1.1 connection to the daemon, driven in a
// closed loop: write a request, read the whole reply, repeat. It is a
// deliberately small client — the generator shares two cores with the
// daemon under test, and net/http's client would spend more CPU per request
// than pulsed's handler does, so the measurement would mostly be of the
// generator. It understands exactly what net/http's server sends:
// Content-Length bodies (small JSON replies) and chunked ones (/metrics,
// /attribution).
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	req  bytes.Buffer
	body []byte // reused reply buffer; valid until the next do
	// header, when set, is one extra "Name: value\r\n" line sent with each
	// request (the traced runs' span link).
	header string
}

const ioTimeout = 30 * time.Second

func dialConn(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and returns the status code and the reply body. The
// body aliases an internal buffer that the next call overwrites.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	c.req.Reset()
	c.req.WriteString(method)
	c.req.WriteByte(' ')
	c.req.WriteString(path)
	c.req.WriteString(" HTTP/1.1\r\nHost: pulsed\r\n")
	c.req.WriteString(c.header)
	if body != nil {
		c.req.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.req.WriteString(strconv.Itoa(len(body)))
		c.req.WriteString("\r\n")
	}
	c.req.WriteString("\r\n")
	c.req.Write(body)
	_ = c.c.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := c.c.Write(c.req.Bytes()); err != nil {
		return 0, nil, err
	}
	return c.readReply()
}

func (c *conn) readReply() (int, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				// No trailers are sent; consume the terminating blank line.
				if _, err = c.r.ReadSlice('\n'); err != nil {
					return 0, nil, err
				}
				break
			}
			if err = c.readBody(int(size)); err != nil {
				return 0, nil, err
			}
			if _, err = c.r.Discard(2); err != nil { // chunk's trailing CRLF
				return 0, nil, err
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("reply with neither Content-Length nor chunked encoding")
	}
	return status, c.body, nil
}

// readBody appends n more bytes of the reply to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, (at+n)*2)
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.r, c.body[at:])
	return err
}
