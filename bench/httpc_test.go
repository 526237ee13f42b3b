package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPConnRoundTripsOverOneConnection(t *testing.T) {
	conns := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns[r.RemoteAddr] = true
		switch r.URL.Path {
		case "/v1/caps":
			io.WriteString(w, `{"seq":7,"node":3,"cap_w":151.25,"budget_w":2040,"degraded":false}`)
		case "/v1/budget":
			body, _ := io.ReadAll(r.Body)
			w.WriteHeader(http.StatusAccepted)
			w.Write(body)
		case "/big":
			w.Header().Set("Content-Length", "40960") // as ctlplane's handlers do
			io.WriteString(w, strings.Repeat("x", 40<<10))
		case "/stream":
			w.(http.Flusher).Flush() // forces chunked encoding: no Content-Length
			io.WriteString(w, "chunk")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	h, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()

	for i := 0; i < 3; i++ {
		status, body, err := h.get("/v1/caps")
		if err != nil || status != 200 || !strings.HasPrefix(string(body), `{"seq":7,`) || !strings.HasSuffix(string(body), `}`) {
			t.Fatalf("GET: %d, %q, %v", status, body, err)
		}
	}
	status, body, err := h.post("/v1/budget", []byte(`{"budget_w":1740}`))
	if err != nil || status != 202 || string(body) != `{"budget_w":1740}` {
		t.Errorf("POST: %d, %q, %v", status, body, err)
	}
	if status, _, err := h.get("/nope"); err != nil || status != 404 {
		t.Errorf("GET /nope: %d, %v", status, err)
	}
	if status, body, err := h.get("/big"); err != nil || status != 200 || len(body) != 40<<10 {
		t.Errorf("GET /big: %d, %d bytes, %v", status, len(body), err)
	}
	if len(conns) != 1 {
		t.Errorf("%d connections used, want the one kept alive", len(conns))
	}
	if _, _, err := h.get("/stream"); err != errNoLength {
		t.Errorf("a chunked response: %v, want errNoLength", err)
	}
}
