// Package ctlplane is the operator-facing HTTP/JSON control plane for a
// DiBA daemon or an in-process engine. It is built around one contract:
// serving reads must never touch consensus state. The round loop publishes
// an immutable StateSnapshot per round (internal/diba/publish.go); this
// package serves those snapshots with zero allocations on the steady-state
// read path and funnels writes through a bounded, latest-wins command queue
// that the round loop drains at round boundaries.
package ctlplane

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"powercap/internal/diba"
)

// CommandKind identifies a queued control-plane write.
type CommandKind int

const (
	// CmdSetBudget sets the cluster budget to BudgetW watts.
	CmdSetBudget CommandKind = iota
	// CmdShed is an emergency shed: multiply the budget by (1 - Frac).
	CmdShed
)

func (k CommandKind) String() string {
	switch k {
	case CmdSetBudget:
		return "set-budget"
	case CmdShed:
		return "shed"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Command is one pending control-plane write. Commands with the same Key
// coalesce latest-wins while queued: an operator slamming POST /v1/budget
// ten times between rounds produces one budget change, not ten.
type Command struct {
	Kind    CommandKind
	Key     string
	BudgetW float64
	Frac    float64
}

// cmdQueue is the bounded latest-wins command queue. Enqueue is called from
// HTTP handler goroutines; Drain is called from the round loop. The mutex
// is only ever held for map/slice bookkeeping — never while applying.
type cmdQueue struct {
	mu      sync.Mutex
	max     int
	pending map[string]Command
	order   []string // arrival order of first enqueue per key

	queued    atomic.Uint64
	coalesced atomic.Uint64
	rejected  atomic.Uint64
	applied   atomic.Uint64
	failed    atomic.Uint64
}

var errQueueFull = errors.New("command queue full")

// enqueue adds or coalesces cmd. It reports whether the command replaced a
// pending one with the same key.
func (q *cmdQueue) enqueue(cmd Command) (coalesced bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pending == nil {
		q.pending = make(map[string]Command, q.max)
	}
	if _, ok := q.pending[cmd.Key]; ok {
		q.pending[cmd.Key] = cmd
		q.coalesced.Add(1)
		return true, nil
	}
	if len(q.pending) >= q.max {
		q.rejected.Add(1)
		return false, errQueueFull
	}
	q.pending[cmd.Key] = cmd
	q.order = append(q.order, cmd.Key)
	q.queued.Add(1)
	return false, nil
}

// drain removes all pending commands and applies them in arrival order.
func (q *cmdQueue) drain(apply func(Command) error) (applied, failed int) {
	q.mu.Lock()
	if len(q.pending) == 0 {
		q.mu.Unlock()
		return 0, 0
	}
	cmds := make([]Command, 0, len(q.order))
	for _, key := range q.order {
		cmds = append(cmds, q.pending[key])
	}
	q.pending = nil
	q.order = nil
	q.mu.Unlock()

	for _, cmd := range cmds {
		if err := apply(cmd); err != nil {
			failed++
			q.failed.Add(1)
		} else {
			applied++
			q.applied.Add(1)
		}
	}
	return applied, failed
}

func (q *cmdQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Config parameterizes a Server.
type Config struct {
	// Node is the daemon's node id (-1 for an engine-mode server).
	Node int
	// Workload names the local utility model, echoed by GET /status.
	Workload string
	// Pub is the snapshot source. Required.
	Pub *diba.StatePub
	// BudgetW is the configured full cluster budget in watts; POST
	// /v1/powercap percentages are taken relative to it.
	BudgetW float64
	// Hier rejects budget/shed commands: in hierarchical mode the budget is
	// governed by the lease protocol, not the local agent.
	Hier bool
	// MaxPending bounds the command queue (distinct keys). Default 64.
	MaxPending int
}

// request-counter indices, one per endpoint family.
const (
	reqCaps = iota
	reqHealth
	reqStatus
	reqMetrics
	reqCommand
	reqPaths
)

// Server serves published snapshots and queues control-plane writes. All
// read endpoints are wait-free with respect to the round loop.
type Server struct {
	cfg  Config
	pub  *diba.StatePub
	caps bodyCache
	hlth bodyCache
	stat bodyCache
	cmds cmdQueue

	reqs [reqPaths]atomic.Uint64

	mu sync.Mutex
	hs *http.Server
	ln net.Listener
}

// New builds a Server over cfg.Pub. It does not start listening; call
// Start, or mount Handler on a server of your own.
func New(cfg Config) *Server {
	if cfg.Pub == nil {
		panic("ctlplane: Config.Pub is required")
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 64
	}
	s := &Server{cfg: cfg, pub: cfg.Pub}
	s.cmds.max = cfg.MaxPending
	s.caps.enc = appendCapsJSON
	s.hlth.enc = appendHealthJSON
	s.stat.enc = func(b []byte, snap *diba.StateSnapshot) []byte {
		return appendStatusJSON(b, cfg.Node, cfg.Workload, snap)
	}
	return s
}

// CapsBody returns the encoded GET /v1/caps body for the latest snapshot,
// or nil before the first publication. This is the serving hot path: when
// the snapshot has not changed since the previous call it performs two
// atomic loads, one pointer compare and zero allocations.
func (s *Server) CapsBody() []byte {
	snap := s.pub.Load()
	if snap == nil {
		return nil
	}
	return s.caps.get(snap)
}

// HealthBody returns the encoded GET /v1/health body, with the same
// caching discipline as CapsBody.
func (s *Server) HealthBody() []byte {
	snap := s.pub.Load()
	if snap == nil {
		return nil
	}
	return s.hlth.get(snap)
}

// StatusBody returns the legacy GET /status body.
func (s *Server) StatusBody() []byte {
	snap := s.pub.Load()
	if snap == nil {
		return nil
	}
	return s.stat.get(snap)
}

// Enqueue queues a control-plane write for the next round boundary,
// coalescing latest-wins per key.
func (s *Server) Enqueue(cmd Command) (coalesced bool, err error) {
	if s.cfg.Hier {
		return false, errors.New("hierarchical mode: budget is governed by the lease protocol")
	}
	return s.cmds.enqueue(cmd)
}

// Drain applies every pending command in arrival order via apply. Call it
// from the round loop at a round boundary — apply runs on the caller's
// goroutine and may touch consensus state.
func (s *Server) Drain(apply func(Command) error) (applied, failed int) {
	return s.cmds.drain(apply)
}

// Pending returns the number of queued (un-drained) commands.
func (s *Server) Pending() int { return s.cmds.depth() }

// Requests returns the total HTTP requests served, summed across endpoints.
func (s *Server) Requests() uint64 {
	var n uint64
	for i := range s.reqs {
		n += s.reqs[i].Load()
	}
	return n
}

// Handler returns the control-plane mux:
//
//	GET  /v1/caps     cap/budget view of the latest round
//	GET  /v1/health   gray-failure, watchdog and transport view
//	GET  /status      legacy one-line status (field-compatible with old dibad)
//	GET  /metrics     Prometheus text exposition
//	POST /v1/budget   {"budget_w": 900}            set cluster budget
//	POST /v1/powercap {"percentage": 75}           budget as % of configured
//	POST /v1/shed     {"frac": 0.2}                emergency shed
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/caps", func(w http.ResponseWriter, r *http.Request) {
		s.serveBody(w, r, reqCaps, s.CapsBody)
	})
	mux.HandleFunc("/v1/health", func(w http.ResponseWriter, r *http.Request) {
		s.serveBody(w, r, reqHealth, s.HealthBody)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		s.serveBody(w, r, reqStatus, s.StatusBody)
	})
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/v1/budget", s.serveBudget)
	mux.HandleFunc("/v1/powercap", s.servePowercap)
	mux.HandleFunc("/v1/shed", s.serveShed)
	return mux
}

func (s *Server) serveBody(w http.ResponseWriter, r *http.Request, idx int, body func() []byte) {
	s.reqs[idx].Add(1)
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	b := body()
	if b == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", itoa(len(b)))
	w.Write(b)
}

// itoa is a tiny allocation-free int formatter for Content-Length values
// (strconv.Itoa escapes its buffer to the heap).
func itoa(n int) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

func (s *Server) decodeCommand(w http.ResponseWriter, r *http.Request, into any) bool {
	s.reqs[reqCommand].Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) queueAndReply(w http.ResponseWriter, cmd Command) {
	coalesced, err := s.Enqueue(cmd)
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, errQueueFull) {
			code = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"status\":\"queued\",\"command\":%q,\"coalesced\":%v}\n", cmd.Kind.String(), coalesced)
}

func (s *Server) serveBudget(w http.ResponseWriter, r *http.Request) {
	var req struct {
		BudgetW float64 `json:"budget_w"`
	}
	if !s.decodeCommand(w, r, &req) {
		return
	}
	if req.BudgetW <= 0 {
		http.Error(w, "budget_w must be positive", http.StatusBadRequest)
		return
	}
	s.queueAndReply(w, Command{Kind: CmdSetBudget, Key: "budget", BudgetW: req.BudgetW})
}

func (s *Server) servePowercap(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Percentage float64 `json:"percentage"`
	}
	if !s.decodeCommand(w, r, &req) {
		return
	}
	if req.Percentage <= 0 || req.Percentage > 100 {
		http.Error(w, "percentage must be in (0, 100]", http.StatusBadRequest)
		return
	}
	if s.cfg.BudgetW <= 0 {
		http.Error(w, "no configured budget to take a percentage of", http.StatusConflict)
		return
	}
	s.queueAndReply(w, Command{
		Kind:    CmdSetBudget,
		Key:     "budget",
		BudgetW: s.cfg.BudgetW * req.Percentage / 100,
	})
}

func (s *Server) serveShed(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Frac float64 `json:"frac"`
	}
	if !s.decodeCommand(w, r, &req) {
		return
	}
	if req.Frac <= 0 || req.Frac >= 1 {
		http.Error(w, "frac must be in (0, 1)", http.StatusBadRequest)
		return
	}
	s.queueAndReply(w, Command{Kind: CmdShed, Key: "shed", Frac: req.Frac})
}

// Start listens on addr and serves the control plane in a background
// goroutine. Use Addr to learn the bound address (addr may use port 0).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	go hs.Serve(ln)
	return nil
}

// Addr returns the listener address after Start, or "" before it.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the HTTP server: the listener closes
// immediately, in-flight requests get up to timeout to complete, and no
// accepted request is ever dropped mid-response. Safe to call without a
// prior Start (no-op) and at most once meaningfully.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return hs.Shutdown(ctx)
}
