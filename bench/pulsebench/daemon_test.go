package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestScanStderr(t *testing.T) {
	clean := "2026/01/01 pulsed: 12 functions, policy pulse\n2026/01/01 alert firing: rule=kam\n"
	if err := scanStderr(clean); err != nil {
		t.Errorf("clean log rejected: %v", err)
	}
	for _, bad := range []string{"panic: runtime error: index out of range", "2026/01/01 ticker: runtime: closed", "goroutine 1 [running]:\npanic(0x1)"} {
		if err := scanStderr(clean + bad + "\n"); err == nil {
			t.Errorf("log with %q accepted", bad)
		}
	}
}

func TestReadProcSelf(t *testing.T) {
	u, err := readProc(0)
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if u.rssMB <= 0 {
		t.Errorf("resident memory %v MB", u.rssMB)
	}
}

// The generator's client must read both reply framings net/http's server
// produces, back to back on one connection.
func TestConnReadsLengthAndChunkedReplies(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 16<<10) // 256 KiB: streamed in chunks
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"ok":true}`)
		case "/big":
			for i := 0; i < len(big); i += 4096 {
				fmt.Fprint(w, big[i:i+4096])
				w.(http.Flusher).Flush()
			}
		case "/echo":
			buf := make([]byte, r.ContentLength)
			_, _ = r.Body.Read(buf)
			w.Header().Set("X-Seen", r.Header.Get(traceHeader))
			_, _ = w.Write(buf)
		}
	}))
	defer srv.Close()
	c, err := dialConn(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for round := 0; round < 2; round++ {
		if status, body, err := c.do("GET", "/small", nil); err != nil || status != 201 || string(body) != `{"ok":true}` {
			t.Fatalf("small: %d %q %v", status, body, err)
		}
		if status, body, err := c.do("GET", "/big", nil); err != nil || status != 200 || string(body) != big {
			t.Fatalf("big: %d, %d bytes, %v", status, len(body), err)
		}
		if status, body, err := c.do("POST", "/echo", []byte(`{"name":"x"}`)); err != nil || status != 200 || string(body) != `{"name":"x"}` {
			t.Fatalf("echo: %d %q %v", status, body, err)
		}
	}
}
