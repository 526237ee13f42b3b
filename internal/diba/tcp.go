package diba

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireCodec selects the encoding a transport writes on its connections.
// Reading is always codec-agnostic: a binary v1 frame starts with the magic
// byte 0xD1 and a JSON message with '{', so the receive path tells them
// apart per message and a mixed-version cluster keeps working.
type WireCodec int

const (
	// WireBinary writes the compact binary v1 frames of wire.go on every
	// connection whose peer negotiated binary in the hello exchange, and
	// falls back to JSON per connection otherwise.
	WireBinary WireCodec = iota
	// WireJSON writes newline-delimited JSON unconditionally — the codec
	// of transports predating wire.go.
	WireJSON
)

func (c WireCodec) String() string {
	if c == WireJSON {
		return "json"
	}
	return "binary"
}

// ParseWireCodec parses the -wire flag values "binary" and "json".
func ParseWireCodec(s string) (WireCodec, error) {
	switch s {
	case "binary":
		return WireBinary, nil
	case "json":
		return WireJSON, nil
	}
	return 0, fmt.Errorf("diba: unknown wire codec %q (want binary or json)", s)
}

// tcpOptions are the transport's robustness knobs, set via TCPOption. The
// defaults preserve the original behavior on healthy links while bounding
// every blocking operation: writes carry a deadline (a stuck peer cannot
// wedge the sender), dials get a short per-attempt budget under the overall
// connect deadline, and a broken outbound link is redialed with exponential
// backoff before the peer is given up on.
type tcpOptions struct {
	writeTimeout   time.Duration
	dialTimeout    time.Duration
	heartbeat      time.Duration
	reconnectMin   time.Duration
	reconnectMax   time.Duration
	reconnectTries int
	codec          WireCodec
	sendQueue      int
	maxWire        int
}

func defaultTCPOptions() tcpOptions {
	return tcpOptions{
		writeTimeout:   30 * time.Second,
		dialTimeout:    2 * time.Second,
		heartbeat:      0, // off unless enabled
		reconnectMin:   50 * time.Millisecond,
		reconnectMax:   2 * time.Second,
		reconnectTries: 8,
		codec:          WireBinary,
		sendQueue:      256,
		maxWire:        WireVersion,
	}
}

// TCPOption customizes a TCPTransport.
type TCPOption func(*tcpOptions)

// WithWriteTimeout bounds each Send's socket write; 0 disables the deadline.
func WithWriteTimeout(d time.Duration) TCPOption {
	return func(o *tcpOptions) { o.writeTimeout = d }
}

// WithDialTimeout sets the per-attempt dial budget used by ConnectNeighbors
// and the reconnect loop (always additionally capped by the overall
// deadline).
func WithDialTimeout(d time.Duration) TCPOption {
	return func(o *tcpOptions) { o.dialTimeout = d }
}

// WithHeartbeat enables periodic liveness beacons on every connection.
// Heartbeats never reach the inbox; they only refresh LastHeard, letting a
// failure detector distinguish a slow peer from a dead one.
func WithHeartbeat(interval time.Duration) TCPOption {
	return func(o *tcpOptions) { o.heartbeat = interval }
}

// WithReconnect tunes the exponential-backoff redial of broken outbound
// links: the first retry waits min, doubling up to max, for at most tries
// attempts. tries = 0 disables reconnection.
func WithReconnect(min, max time.Duration, tries int) TCPOption {
	return func(o *tcpOptions) { o.reconnectMin, o.reconnectMax, o.reconnectTries = min, max, tries }
}

// WithWireCodec selects the encoding written on outbound connections. The
// default is WireBinary; whether a connection actually carries binary is
// negotiated per link in the hello exchange, so a WireBinary transport
// talking to a WireJSON (or pre-wire) peer transparently stays on JSON.
func WithWireCodec(c WireCodec) TCPOption {
	return func(o *tcpOptions) { o.codec = c }
}

// WithWireVersion caps the binary codec version this transport advertises
// and accepts in the hello exchange (clamped to [1, WireVersion]). The
// default is WireVersion; lower values emulate an older build for
// mixed-version interop testing — a v1-capped link carries only v1 bitmap
// bits, with v2-field messages falling back to JSON per message.
func WithWireVersion(v int) TCPOption {
	return func(o *tcpOptions) {
		if v < 1 {
			v = 1
		}
		if v > WireVersion {
			v = WireVersion
		}
		o.maxWire = v
	}
}

// WithSendQueue sets the per-connection outbound queue depth that feeds the
// coalescing writer: Send enqueues, and a per-connection writer drains
// every pending message into one buffered socket write (heartbeats
// piggyback on pending flushes instead of forcing their own syscall).
// n <= 0 disables coalescing entirely — every Send performs its own
// synchronous socket write, the pre-coalescing behavior. The default is
// 256.
func WithSendQueue(n int) TCPOption {
	return func(o *tcpOptions) { o.sendQueue = n }
}

// WireStats counts a peer link's traffic in both directions. Counters are
// cumulative across reconnects of the link. Flushes is the number of socket
// writes; with coalescing enabled MsgsSent/Flushes is the average batch
// size, and BytesSent/MsgsSent the measured bytes per message that the
// repro reports next to netsim's Table 4.2 model.
type WireStats struct {
	MsgsSent  uint64
	MsgsRecv  uint64
	BytesSent uint64
	BytesRecv uint64
	Flushes   uint64
}

// wireCounters is the internal, atomically-updated form of WireStats.
type wireCounters struct {
	msgsSent  atomic.Uint64
	msgsRecv  atomic.Uint64
	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64
	flushes   atomic.Uint64
}

// countFlush counts one socket write of msgs messages and bytes bytes.
// Writers count before the write, so a receiver that has read a frame
// always finds it counted on the sender. A failed write stays counted:
// part of it may have reached the peer, and the counters are exported as
// monotone (Prometheus) counters, so they never go back.
func (c *wireCounters) countFlush(bytes, msgs int) {
	c.bytesSent.Add(uint64(bytes))
	c.msgsSent.Add(uint64(msgs))
	c.flushes.Add(1)
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		Flushes:   c.flushes.Load(),
	}
}

// TCPTransport implements Transport over real TCP sockets — the deployment
// path of the dissertation's "working prototype of DiBA on a real
// experimental cluster". Each agent listens on its own address and keeps
// one persistent connection per neighbor; the dial direction is
// deterministic (lower id dials higher id) so exactly one connection exists
// per edge.
//
// Wire format: each message is either a binary v1 frame (wire.go) or a line
// of JSON; which one a link carries is negotiated in the hello exchange
// (see tcpHello) and the receive path additionally distinguishes the two by
// first byte, so mixed-codec and mixed-version clusters interoperate.
// Outbound messages pass through a bounded per-connection queue whose
// writer coalesces every pending message into a single socket write
// (WithSendQueue).
//
// Fault behavior: every socket write carries a deadline, optional
// heartbeats feed a per-peer LastHeard clock, and when an outbound link
// breaks the dialing side redials with exponential backoff, replaying the
// last message sent to the peer (receivers deduplicate, so replay is safe).
// A link that stays down past the retry budget is abandoned; subsequent
// Sends to that peer fail and its LastHeard goes stale, which is what the
// agent-level failure detector keys on.
type TCPTransport struct {
	id    int
	ln    net.Listener
	inbox chan Message
	opt   tcpOptions

	// Heartbeats are identical every interval, so both encodings are
	// precomputed once and appended as raw bytes on the hot path.
	hbMsg  Message
	hbJSON []byte
	hbBin  []byte

	// epoch anchors the ping Echo timestamps: pings carry nanoseconds
	// since it, and the matching pong's round trip is measured against the
	// same clock — entirely local, no peer clock involved.
	epoch time.Time

	mu           sync.Mutex
	conns        map[int]*tcpConn
	addrs        map[int]string // learned in ConnectNeighbors, for redial
	lastSent     map[int]Message
	haveSent     map[int]bool
	unflushed    map[int][]Message // dequeued but never written; replayed on reconnect
	lastHeard    map[int]time.Time
	reconnecting map[int]bool
	stats        map[int]*wireCounters
	rtt          map[int]*PeerRTT
	// rng jitters reconnect backoff (±15%) so simultaneous link deaths
	// across a cluster cannot re-dial in lockstep; seeded by id, so each
	// agent's jitter stream is deterministic.
	rng *rand.Rand

	wg   sync.WaitGroup
	done chan struct{}
}

// tcpConn is one live connection. When the send queue is enabled, writes
// happen only on the connection's writeLoop goroutine; when disabled, Send
// writes directly under mu. wire is the negotiated write codec version
// (0 = JSON, >= 1 = binary up to that bitmap version) — it starts 0 (JSON)
// on dialed connections and rises when the peer's hello-ack arrives.
type tcpConn struct {
	c        net.Conn
	peer     int
	queue    chan Message // nil when coalescing is disabled
	done     chan struct{}
	drain    chan struct{} // closed by Close: flush the queue, then stop
	flushed  chan struct{} // closed by writeLoop once the final flush is out
	closing  sync.Once
	draining sync.Once
	finished sync.Once
	wire     atomic.Int32

	mu      sync.Mutex // serializes direct writes (queue disabled)
	scratch []byte
}

// shutdown tears the connection down exactly once: the writeLoop drains
// out via done and both pump and any blocked writer fail over the closed
// socket.
func (conn *tcpConn) shutdown() {
	conn.closing.Do(func() {
		close(conn.done)
		conn.c.Close()
	})
}

// startDrain asks the writeLoop to flush everything queued and stop.
func (conn *tcpConn) startDrain() {
	conn.draining.Do(func() { close(conn.drain) })
}

func (conn *tcpConn) finishFlush() {
	conn.finished.Do(func() { close(conn.flushed) })
}

// tcpHello opens every dialed connection. Wire advertises the highest
// binary codec version the dialer is willing to write and read (0 or
// absent: JSON only — also what pre-wire peers send, since their decoder
// ignores the unknown field). An acceptor that is itself binary-configured
// answers a hello with Wire >= 1 by a tcpHelloAck carrying the negotiated
// version — the lower of the two advertisements — and starts writing binary
// frames at that version; the dialer upgrades its write codec when the ack
// arrives. Both directions therefore carry binary exactly when both
// endpoints are binary-configured, at the highest version both understand,
// and any link with a JSON or pre-wire endpoint stays pure JSON.
type tcpHello struct {
	From int `json:"hello"`
	Wire int `json:"wire,omitempty"`
}

type tcpHelloAck struct {
	From int `json:"helloack"`
	Wire int `json:"wire"`
}

// helloAckPrefix identifies an ack line in the receive path. Acks are only
// ever sent to peers that advertised Wire >= 1, so pre-wire peers never see
// one.
var helloAckPrefix = []byte(`{"helloack"`)

// NewTCPTransport starts listening on addr (e.g. "127.0.0.1:9000") for
// agent id. Call ConnectNeighbors afterwards, once every agent in the
// cluster is listening.
func NewTCPTransport(id int, addr string, opts ...TCPOption) (*TCPTransport, error) {
	opt := defaultTCPOptions()
	for _, o := range opts {
		o(&opt)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diba: agent %d listen: %w", id, err)
	}
	t := &TCPTransport{
		id:           id,
		ln:           ln,
		inbox:        make(chan Message, 1024),
		opt:          opt,
		epoch:        time.Now(),
		conns:        make(map[int]*tcpConn),
		lastSent:     make(map[int]Message),
		haveSent:     make(map[int]bool),
		unflushed:    make(map[int][]Message),
		lastHeard:    make(map[int]time.Time),
		reconnecting: make(map[int]bool),
		stats:        make(map[int]*wireCounters),
		rtt:          make(map[int]*PeerRTT),
		rng:          rand.New(rand.NewSource(laneSeed(0x6a177e4, id, id))),
		done:         make(chan struct{}),
	}
	t.hbMsg = Message{From: id, Kind: MsgHeartbeat}
	js, err := json.Marshal(t.hbMsg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("diba: agent %d heartbeat encode: %w", id, err)
	}
	t.hbJSON = append(js, '\n')
	t.hbBin = EncodeTo(nil, t.hbMsg)
	t.wg.Add(1)
	go t.acceptLoop()
	if opt.heartbeat > 0 {
		t.wg.Add(1)
		go t.heartbeatLoop()
	}
	return t, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.handleIncoming(c)
	}
}

// handleIncoming reads the peer's hello, answers binary-capable peers with
// an ack, registers the connection, replays the last message we sent the
// peer (it may have been lost with the old link; receivers dedup), then
// pumps messages into the inbox.
func (t *TCPTransport) handleIncoming(c net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReader(c)
	line, err := br.ReadBytes('\n')
	if err != nil {
		c.Close()
		return
	}
	var hello tcpHello
	if err := json.Unmarshal(line, &hello); err != nil {
		c.Close()
		return
	}
	level := hello.Wire
	if level > t.opt.maxWire {
		level = t.opt.maxWire
	}
	binary := level >= 1 && t.opt.codec == WireBinary
	if !binary {
		level = 0
	}
	if binary {
		// Tell the dialer it may upgrade its write codec, and to which
		// version. Written before the connection is registered, so it cannot
		// interleave with coalesced batches.
		ack, err := json.Marshal(tcpHelloAck{From: t.id, Wire: level})
		if err == nil {
			line := append(ack, '\n')
			if t.opt.writeTimeout > 0 {
				c.SetWriteDeadline(time.Now().Add(t.opt.writeTimeout))
			}
			_, err = c.Write(line)
			c.SetWriteDeadline(time.Time{})
			if err == nil {
				// The dialer's pump counts the ack line into BytesRecv, so
				// count it here too — keeping BytesSent on this end equal to
				// BytesRecv on the other.
				t.counters(hello.From).bytesSent.Add(uint64(len(line)))
			}
		}
		if err != nil {
			c.Close()
			return
		}
	}
	conn := t.register(hello.From, c, level)
	t.replayLast(hello.From)
	t.pump(hello.From, br, conn)
}

// register installs a fresh tcpConn for peer (tearing down any previous
// one) and starts its coalescing writer. wire is the negotiated write codec
// version (0 = JSON).
func (t *TCPTransport) register(peer int, c net.Conn, wire int) *tcpConn {
	conn := &tcpConn{c: c, peer: peer, done: make(chan struct{}),
		drain: make(chan struct{}), flushed: make(chan struct{})}
	conn.wire.Store(int32(wire))
	if t.opt.sendQueue > 0 {
		conn.queue = make(chan Message, t.opt.sendQueue)
	}
	t.mu.Lock()
	if old, ok := t.conns[peer]; ok {
		old.shutdown()
	}
	t.conns[peer] = conn
	t.lastHeard[peer] = time.Now()
	t.mu.Unlock()
	if conn.queue != nil {
		t.wg.Add(1)
		go t.writeLoop(conn)
	}
	return conn
}

// counters returns peer's cumulative traffic counters, creating them on
// first use.
func (t *TCPTransport) counters(peer int) *wireCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.stats[peer]
	if !ok {
		st = &wireCounters{}
		t.stats[peer] = st
	}
	return st
}

// WireStats returns a snapshot of per-peer wire-level traffic counters,
// keyed by peer id.
func (t *TCPTransport) WireStats() map[int]WireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]WireStats, len(t.stats))
	for p, c := range t.stats {
		out[p] = c.snapshot()
	}
	return out
}

// WireTotals returns wire-level traffic counters summed over all peers.
func (t *TCPTransport) WireTotals() WireStats {
	var sum WireStats
	for _, s := range t.WireStats() {
		sum.MsgsSent += s.MsgsSent
		sum.MsgsRecv += s.MsgsRecv
		sum.BytesSent += s.BytesSent
		sum.BytesRecv += s.BytesRecv
		sum.Flushes += s.Flushes
	}
	return sum
}

// replayLast re-sends everything that may have been lost with the previous
// connection: first any batch the coalescing writer dequeued but never got
// onto the wire (saveUnflushed), in original order, then the last recorded
// message — the one that may have been in flight when the link died.
// Receivers deduplicate, so replay is safe.
func (t *TCPTransport) replayLast(peer int) {
	t.mu.Lock()
	pend := t.unflushed[peer]
	delete(t.unflushed, peer)
	m, ok := t.lastSent[peer], t.haveSent[peer]
	t.mu.Unlock()
	for _, pm := range pend {
		// record=false: these were recorded when first sent, and lastSent
		// must keep pointing at the newest message, not an older replay.
		_ = t.writeTo(peer, pm, false)
	}
	if ok {
		_ = t.Send(peer, m)
	}
}

// heartbeatLoop beacons on every live connection so peers can tell slow
// from dead. With coalescing enabled a heartbeat is enqueued without
// blocking — if round traffic already fills the queue the beacon is
// redundant and skipped, and otherwise it rides the writer's next flush
// as a precomputed frame. Each tick also sends an RTT ping: the pong's
// echoed timestamp feeds the per-peer estimator that drives adaptive
// gather deadlines and the degraded-peer verdict (rtt.go).
func (t *TCPTransport) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.opt.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
			t.mu.Lock()
			conns := make([]*tcpConn, 0, len(t.conns))
			for _, conn := range t.conns {
				conns = append(conns, conn)
			}
			t.mu.Unlock()
			ping := Message{From: t.id, Kind: MsgPing, Echo: t.nowNanos()}
			for _, conn := range conns {
				if conn.queue == nil {
					_ = t.writeDirect(conn, t.hbMsg)
					_ = t.writeDirect(conn, ping)
					continue
				}
				select {
				case conn.queue <- t.hbMsg:
				default:
				}
				select {
				case conn.queue <- ping:
				default:
				}
			}
		}
	}
}

// nowNanos is the transport's local monotonic clock for ping timestamps —
// nanoseconds since construction, never zero (a zero Echo would be omitted
// from the wire frame).
func (t *TCPTransport) nowNanos() int64 {
	n := time.Since(t.epoch).Nanoseconds()
	if n <= 0 {
		n = 1
	}
	return n
}

// deliver routes one inbound message: every arrival refreshes the sender's
// LastHeard clock, and heartbeats, pings and pongs stop there instead of
// reaching the inbox — a ping is answered with a pong echoing its
// timestamp, and a pong closes the loop by feeding the sender's measured
// round trip into the per-peer RTT estimator.
func (t *TCPTransport) deliver(m Message, c net.Conn) bool {
	t.mu.Lock()
	t.lastHeard[m.From] = time.Now()
	t.mu.Unlock()
	switch m.Kind {
	case MsgHeartbeat:
		return true
	case MsgPing:
		_ = t.writeTo(m.From, Message{From: t.id, Kind: MsgPong, Echo: m.Echo}, false)
		return true
	case MsgPong:
		if d := time.Duration(t.nowNanos() - m.Echo); d > 0 {
			t.observeRTT(m.From, d)
		}
		return true
	}
	select {
	case t.inbox <- m:
		return true
	case <-t.done:
		c.Close()
		return false
	}
}

// observeRTT feeds one measured round trip into peer's estimator.
func (t *TCPTransport) observeRTT(peer int, d time.Duration) {
	t.mu.Lock()
	r := t.rtt[peer]
	if r == nil {
		r = &PeerRTT{}
		t.rtt[peer] = r
	}
	r.Observe(d)
	t.mu.Unlock()
}

// grayRTTFactor is how many times slower than the fastest peer a peer's
// smoothed RTT must be before RTTStats marks it degraded. Relative, not
// absolute: on a uniformly slow fabric nobody is gray.
const grayRTTFactor = 4

// RTTStats snapshots the per-peer RTT estimators next to WireStats: mean
// and p99 over the retained sample window, a suspicion score over the
// current silence (floor = two heartbeat intervals), and the degraded
// verdict — smoothed RTT at least grayRTTFactor times the fastest peer's
// and more than a millisecond over it, so measurement noise on a healthy
// LAN never convicts.
func (t *TCPTransport) RTTStats() map[int]RTTStats {
	floor := 2 * t.opt.heartbeat
	if floor <= 0 {
		floor = 500 * time.Millisecond
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var minSRTT time.Duration = -1
	for _, r := range t.rtt {
		if r.Samples() == 0 {
			continue
		}
		if s := r.SRTT(); minSRTT < 0 || s < minSRTT {
			minSRTT = s
		}
	}
	out := make(map[int]RTTStats, len(t.rtt))
	for p, r := range t.rtt {
		st := RTTStats{Mean: r.Mean(), P99: r.P99(), Samples: r.Samples()}
		if heard, ok := t.lastHeard[p]; ok {
			st.Suspicion = r.Suspicion(now.Sub(heard), floor)
		}
		if s := r.SRTT(); minSRTT > 0 && s >= grayRTTFactor*minSRTT && s-minSRTT > time.Millisecond {
			st.Degraded = true
		}
		out[p] = st
	}
	return out
}

// pump reads messages off one connection until it breaks. The framing is
// detected per message: a 0xD1 first byte is a binary v1 frame, anything
// else a newline-terminated line of JSON — either a hello-ack (which
// upgrades the connection's write codec) or a Message.
func (t *TCPTransport) pump(peer int, br *bufio.Reader, conn *tcpConn) {
	st := t.counters(peer)
	var frame [maxWireFrame]byte
	for {
		first, err := br.Peek(1)
		if err == nil && first[0] == wireMagic {
			var hdr []byte
			if hdr, err = br.Peek(2); err == nil {
				// The length byte is peer-controlled: a value above the v1
				// maximum is a corrupt or hostile frame, and slicing the fixed
				// buffer with it would panic. Fall through to the teardown
				// path instead, like any other decode error.
				if n := int(hdr[1]) + 2; n <= maxWireFrame {
					b := frame[:n]
					if _, err = io.ReadFull(br, b); err == nil {
						var m Message
						if m, _, err = Decode(b); err == nil {
							st.bytesRecv.Add(uint64(len(b)))
							st.msgsRecv.Add(1)
							if !t.deliver(m, conn.c) {
								return
							}
							continue
						}
					}
				}
			}
		} else if err == nil {
			var line []byte
			if line, err = br.ReadBytes('\n'); err == nil {
				st.bytesRecv.Add(uint64(len(line)))
				if bytes.HasPrefix(line, helloAckPrefix) {
					var ack tcpHelloAck
					if json.Unmarshal(line, &ack) == nil && ack.Wire >= 1 && t.opt.codec == WireBinary {
						w := ack.Wire
						if w > t.opt.maxWire {
							w = t.opt.maxWire
						}
						conn.wire.Store(int32(w))
					}
					continue
				}
				var m Message
				if err = json.Unmarshal(line, &m); err == nil {
					st.msgsRecv.Add(1)
					if !t.deliver(m, conn.c) {
						return
					}
					continue
				}
			}
		}
		// Read or decode error: a broken or desynchronized stream is torn
		// down and left to the reconnect path.
		conn.shutdown()
		t.maybeReconnect(peer, conn.c)
		return
	}
}

// encodeMsg appends m's wire form in the connection's current write codec,
// substituting the precomputed frame for heartbeats. A message carrying
// fields newer than the link's negotiated version falls back to JSON for
// that message — the peer's older binary decoder would reject the unknown
// bitmap bits, but its JSON reader parses field-by-field (readers detect
// the codec per frame).
func (t *TCPTransport) encodeMsg(buf []byte, conn *tcpConn, m Message) []byte {
	if w := conn.wire.Load(); w >= 3 ||
		(w == 2 && !wireNeedsV3(m)) ||
		(w == 1 && !wireNeedsV2(m) && !wireNeedsV3(m)) {
		if m == t.hbMsg {
			return append(buf, t.hbBin...)
		}
		return EncodeTo(buf, m)
	}
	if m == t.hbMsg {
		return append(buf, t.hbJSON...)
	}
	js, err := json.Marshal(m)
	if err != nil {
		// Unreachable: Message contains only plain ints and float64s.
		return buf
	}
	buf = append(buf, js...)
	return append(buf, '\n')
}

// maxCoalesce bounds how many queued messages one flush may carry.
const maxCoalesce = 128

// writeBatch writes first plus everything else pending on the queue (up to
// maxCoalesce) to the socket in a single syscall under one write deadline.
// It reports false after a failed write, with the connection already torn
// down and the unwritten messages left in *batch so the caller can hand
// them to saveUnflushed for replay on the next link.
func (t *TCPTransport) writeBatch(conn *tcpConn, st *wireCounters, buf *[]byte, batch *[]Message, first Message) bool {
	bs := append((*batch)[:0], first)
pending:
	for len(bs) < maxCoalesce {
		select {
		case m := <-conn.queue:
			bs = append(bs, m)
		default:
			break pending
		}
	}
	*batch = bs
	b := (*buf)[:0]
	for _, m := range bs {
		b = t.encodeMsg(b, conn, m)
	}
	*buf = b
	if t.opt.writeTimeout > 0 {
		conn.c.SetWriteDeadline(time.Now().Add(t.opt.writeTimeout))
	}
	st.countFlush(len(b), len(bs))
	if _, err := conn.c.Write(b); err != nil {
		// A failed or expired write leaves the stream in an undefined
		// state; drop the connection and let the pump's read failure
		// trigger the reconnect path.
		conn.shutdown()
		return false
	}
	return true
}

// saveUnflushed records a failed flush's batch plus everything still queued
// on the dead connection so replayLast can re-send all of it on the next
// link (receivers dedup, so replay is safe). Without this a failed
// coalesced flush would lose up to maxCoalesce already-dequeued messages
// while reconnect replay restored only the single last one. Heartbeats are
// not worth replaying and are skipped; the buffer is capped to the newest
// queue-plus-batch worth of messages so repeated link deaths cannot grow it
// without bound.
func (t *TCPTransport) saveUnflushed(conn *tcpConn, batch []Message) {
	pend := make([]Message, 0, len(batch))
	for _, m := range batch {
		if m.Kind != MsgHeartbeat {
			pend = append(pend, m)
		}
	}
drained:
	for {
		select {
		case m := <-conn.queue:
			if m.Kind != MsgHeartbeat {
				pend = append(pend, m)
			}
		default:
			break drained
		}
	}
	if len(pend) == 0 {
		return
	}
	t.mu.Lock()
	all := append(t.unflushed[conn.peer], pend...)
	if limit := t.opt.sendQueue + maxCoalesce; len(all) > limit {
		all = all[len(all)-limit:]
	}
	t.unflushed[conn.peer] = all
	t.mu.Unlock()
}

// writeLoop drains a connection's send queue: it blocks for one message,
// then greedily coalesces everything else pending into one buffered write
// (writeBatch). Per-sender ordering is preserved — messages leave the queue
// and hit the socket in Send order. When Close signals drain, the loop
// flushes whatever is still queued and reports back via flushed: Send is
// asynchronous, so the caller's last messages may otherwise die in the
// queue — exactly the tail a BSP peer still needs to finish its final
// round.
func (t *TCPTransport) writeLoop(conn *tcpConn) {
	defer t.wg.Done()
	defer conn.finishFlush()
	st := t.counters(conn.peer)
	buf := make([]byte, 0, 4096)
	batch := make([]Message, 0, maxCoalesce)
	for {
		var m Message
		select {
		case m = <-conn.queue:
		case <-conn.done:
			// Torn down from outside (pump failure or replacement by a fresh
			// link): whatever is still queued would otherwise die with this
			// connection.
			t.saveUnflushed(conn, nil)
			return
		case <-conn.drain:
			for {
				select {
				case m = <-conn.queue:
					if !t.writeBatch(conn, st, &buf, &batch, m) {
						t.saveUnflushed(conn, batch)
						return
					}
				default:
					return
				}
			}
		}
		if !t.writeBatch(conn, st, &buf, &batch, m) {
			t.saveUnflushed(conn, batch)
			return
		}
	}
}

// writeDirect synchronously encodes and writes one message — the
// coalescing-disabled path (WithSendQueue(0)) and the pre-wire behavior:
// one socket write per message.
func (t *TCPTransport) writeDirect(conn *tcpConn, m Message) error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	conn.scratch = t.encodeMsg(conn.scratch[:0], conn, m)
	if t.opt.writeTimeout > 0 {
		conn.c.SetWriteDeadline(time.Now().Add(t.opt.writeTimeout))
	}
	st := t.counters(conn.peer)
	st.countFlush(len(conn.scratch), 1)
	if _, err := conn.c.Write(conn.scratch); err != nil {
		conn.shutdown()
		return err
	}
	return nil
}

// maybeReconnect redials peer with exponential backoff after its link
// broke. Only the dialing side (peer id greater than ours) redials — the
// accepting side waits for the peer to come back — and only one reconnect
// loop runs per peer.
func (t *TCPTransport) maybeReconnect(peer int, broken net.Conn) {
	select {
	case <-t.done:
		return
	default:
	}
	if peer <= t.id || t.opt.reconnectTries <= 0 {
		return
	}
	t.mu.Lock()
	addr, known := t.addrs[peer]
	cur, hasCur := t.conns[peer]
	if !known || t.reconnecting[peer] || (hasCur && cur.c != broken) {
		// Unknown address, a loop already running, or the connection was
		// already replaced (e.g. the peer re-dialed us): nothing to do.
		t.mu.Unlock()
		return
	}
	t.reconnecting[peer] = true
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer func() {
			t.mu.Lock()
			t.reconnecting[peer] = false
			t.mu.Unlock()
		}()
		backoff := t.opt.reconnectMin
		for try := 0; try < t.opt.reconnectTries; try++ {
			// Jitter each wait ±15% so links that died together (one slow or
			// partitioned switch) do not re-dial in a synchronized storm.
			t.mu.Lock()
			wait := jitterDur(backoff, t.rng)
			t.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-t.done:
				timer.Stop()
				return
			case <-timer.C:
			}
			if backoff *= 2; backoff > t.opt.reconnectMax {
				backoff = t.opt.reconnectMax
			}
			if err := t.dialPeer(peer, addr, t.opt.dialTimeout); err == nil {
				t.replayLast(peer)
				return
			}
		}
	}()
}

// dialPeer dials addr, sends the hello (advertising the binary codec when
// configured), registers the connection and starts its pump. The dialed
// connection starts on JSON and upgrades to binary when the peer's ack
// arrives.
func (t *TCPTransport) dialPeer(peer int, addr string, timeout time.Duration) error {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	hello := tcpHello{From: t.id}
	if t.opt.codec == WireBinary {
		hello.Wire = t.opt.maxWire
	}
	js, err := json.Marshal(hello)
	if err != nil {
		c.Close()
		return err
	}
	if t.opt.writeTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(t.opt.writeTimeout))
	}
	if _, err := c.Write(append(js, '\n')); err != nil {
		c.Close()
		return err
	}
	c.SetWriteDeadline(time.Time{})
	conn := t.register(peer, c, 0)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.pump(peer, bufio.NewReader(c), conn)
	}()
	return nil
}

// ConnectNeighbors dials every neighbor whose id is greater than ours
// (lower id dials, higher id accepts) and waits until connections for all
// neighbors exist or the timeout expires. addrs maps node id to listen
// address. Each individual dial attempt gets at most the per-attempt dial
// budget (WithDialTimeout), so one unresponsive peer cannot consume the
// whole deadline that the remaining dials still need.
func (t *TCPTransport) ConnectNeighbors(neighbors []int, addrs map[int]string, timeout time.Duration) error {
	t.mu.Lock()
	if t.addrs == nil {
		t.addrs = make(map[int]string, len(addrs))
	}
	for id, a := range addrs {
		t.addrs[id] = a
	}
	t.mu.Unlock()

	deadlineAll := time.Now().Add(timeout)
	for _, nb := range neighbors {
		if nb > t.id {
			addr, ok := addrs[nb]
			if !ok {
				return fmt.Errorf("diba: no address for neighbor %d", nb)
			}
			// Peers start in arbitrary order; retry refused dials until the
			// deadline so a daemon may come up before its higher-id
			// neighbors are listening. Each attempt is individually capped
			// so a black-holed peer fails fast and the retry loop (not one
			// blocking dial) owns the overall deadline.
			var err error
			for {
				attempt := t.opt.dialTimeout
				if remaining := time.Until(deadlineAll); attempt > remaining {
					attempt = remaining
				}
				if attempt <= 0 {
					err = fmt.Errorf("diba: deadline exceeded")
				} else {
					err = t.dialPeer(nb, addr, attempt)
				}
				if err == nil || time.Now().After(deadlineAll) {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				return fmt.Errorf("diba: agent %d dial %d: %w", t.id, nb, err)
			}
		}
	}
	// Wait for inbound connections from lower-id neighbors.
	for {
		t.mu.Lock()
		missing := 0
		for _, nb := range neighbors {
			if _, ok := t.conns[nb]; !ok {
				missing++
			}
		}
		t.mu.Unlock()
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadlineAll) {
			return fmt.Errorf("diba: agent %d timed out waiting for %d neighbor connection(s)", t.id, missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeTo hands m to the connection for peer: enqueued for the coalescing
// writer when the send queue is enabled, written synchronously otherwise.
// record selects whether the message is remembered for replay after a
// reconnect (round messages are; heartbeats are not).
func (t *TCPTransport) writeTo(to int, m Message, record bool) error {
	t.mu.Lock()
	conn, ok := t.conns[to]
	if record {
		t.lastSent[to] = m
		t.haveSent[to] = true
	}
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("diba: agent %d has no connection to %d", t.id, to)
	}
	if conn.queue == nil {
		return t.writeDirect(conn, m)
	}
	select {
	case conn.queue <- m:
		return t.checkEnqueued(conn, to)
	case <-conn.done:
		return fmt.Errorf("diba: agent %d lost connection to %d", t.id, to)
	default:
	}
	// Queue full: block up to the write timeout, mirroring how a direct
	// write would stall on a full socket buffer.
	var expired <-chan time.Time
	if t.opt.writeTimeout > 0 {
		timer := time.NewTimer(t.opt.writeTimeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case conn.queue <- m:
		return t.checkEnqueued(conn, to)
	case <-conn.done:
		return fmt.Errorf("diba: agent %d lost connection to %d", t.id, to)
	case <-expired:
		conn.shutdown()
		return fmt.Errorf("diba: agent %d send queue to %d full past write timeout", t.id, to)
	}
}

// checkEnqueued re-checks conn liveness after a successful enqueue: when
// both select cases are ready the enqueue may win even though conn.done is
// already closed, placing the message on a queue whose writeLoop has
// exited. Reporting the loss here turns that silent drop into a send error
// (recorded messages are additionally covered by reconnect replay).
func (t *TCPTransport) checkEnqueued(conn *tcpConn, to int) error {
	select {
	case <-conn.done:
		return fmt.Errorf("diba: agent %d lost connection to %d", t.id, to)
	default:
		return nil
	}
}

// Send writes the message to the persistent connection for the target
// neighbor. With coalescing enabled the write itself is asynchronous: Send
// fails synchronously when no connection exists (or the queue stays full
// past the write timeout), while a socket-level failure surfaces on a later
// Send after the writer tears the connection down. A failed write drops the
// connection and lets the reconnect path re-establish it.
func (t *TCPTransport) Send(to int, m Message) error {
	return t.writeTo(to, m, m.Kind != MsgHeartbeat)
}

// Recv blocks for the next inbound message.
func (t *TCPTransport) Recv() (Message, error) {
	select {
	case m := <-t.inbox:
		return m, nil
	case <-t.done:
		return Message{}, fmt.Errorf("diba: transport %d closed", t.id)
	}
}

// TryRecv returns an immediately available inbound message without
// blocking.
func (t *TCPTransport) TryRecv() (Message, bool, error) {
	select {
	case m := <-t.inbox:
		return m, true, nil
	case <-t.done:
		return Message{}, false, fmt.Errorf("diba: transport %d closed", t.id)
	default:
		return Message{}, false, nil
	}
}

// RecvTimeout returns the next inbound message or ErrRecvTimeout after d.
func (t *TCPTransport) RecvTimeout(d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-t.inbox:
		return m, nil
	case <-t.done:
		return Message{}, fmt.Errorf("diba: transport %d closed", t.id)
	case <-timer.C:
		return Message{}, ErrRecvTimeout
	}
}

// LastHeard reports when traffic (rounds or heartbeats) last arrived from
// peer. It implements PeerLiveness for the agent's failure detector.
func (t *TCPTransport) LastHeard(peer int) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts, ok := t.lastHeard[peer]
	return ts, ok
}

// Close flushes every connection's pending sends, then shuts the listener
// and all connections down. The flush matters because Send is asynchronous:
// an agent that reached its stop condition exits right after its final
// broadcast, and without the flush those queued messages would die with the
// process while BSP peers still need them to finish the round. The wait is
// bounded by the write timeout (or its default when deadlines are disabled).
func (t *TCPTransport) Close() error {
	select {
	case <-t.done:
		return nil
	default:
	}
	t.mu.Lock()
	conns := make([]*tcpConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	// With WithWriteTimeout(0) socket writes have no deadline, so a stuck
	// peer could hold <-c.flushed open forever; fall back to the default
	// write timeout as the drain bound rather than blocking Close.
	drainWait := t.opt.writeTimeout
	if drainWait <= 0 {
		drainWait = defaultTCPOptions().writeTimeout
	}
	timer := time.NewTimer(drainWait)
	defer timer.Stop()
	for _, c := range conns {
		if c.queue == nil {
			continue
		}
		c.startDrain()
		select {
		case <-c.flushed:
		case <-timer.C:
		}
	}
	close(t.done)
	err := t.ln.Close()
	t.mu.Lock()
	for _, c := range t.conns {
		c.shutdown()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}
