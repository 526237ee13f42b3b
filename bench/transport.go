package main

import (
	"time"

	"powercap/internal/diba"
	"powercap/internal/stats"
)

// tracedTransport is the harness's view of the transport layer from
// outside: it wraps whatever diba.Transport a node is given, times every
// call the agent makes into it and counts what crosses. An agent calls its
// transport only from the goroutine that steps it, so the fields need no
// synchronisation; the driver reads them between rounds.
type tracedTransport struct {
	inner diba.Transport

	// on switches the timers on; off, calls pass straight through.
	on bool

	sendNs, recvNs             int64
	sends, ctrlSends, sendErrs int64
	recvs, tryRecvs            int64
	sendHist                   stats.LatencyHist
	spans                      *spanBuf // nil when spans are off for this round
	node                       int
	step, round                int
}

func (t *tracedTransport) Send(to int, m diba.Message) error {
	if !t.on {
		return t.inner.Send(to, m)
	}
	start := nanotime()
	err := t.inner.Send(to, m)
	end := nanotime()
	t.sendNs += end - start
	t.sends++
	if m.Kind != diba.MsgEstimate {
		t.ctrlSends++
	}
	if err != nil {
		t.sendErrs++
	}
	t.sendHist.RecordNs(end - start)
	t.spans.add(span{Kind: spanSend, Node: t.node, Step: t.step, Round: t.round, Start: start, End: end})
	return err
}

func (t *tracedTransport) Recv() (diba.Message, error) {
	if !t.on {
		return t.inner.Recv()
	}
	start := nanotime()
	m, err := t.inner.Recv()
	t.recvDone(start)
	return m, err
}

func (t *tracedTransport) recvDone(start int64) {
	end := nanotime()
	t.recvNs += end - start
	t.recvs++
	t.spans.add(span{Kind: spanRecvWait, Node: t.node, Step: t.step, Round: t.round, Start: start, End: end})
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// The optional transport interfaces are forwarded exactly when the wrapped
// transport has them: the agent picks its gather strategy by asserting for
// them, so a wrapper that added or hid one would change what is measured.

type timeoutRecv struct{ t *tracedTransport }

func (w timeoutRecv) RecvTimeout(d time.Duration) (diba.Message, error) {
	inner := w.t.inner.(diba.TimeoutRecver)
	if !w.t.on {
		return inner.RecvTimeout(d)
	}
	start := nanotime()
	m, err := inner.RecvTimeout(d)
	w.t.recvDone(start)
	return m, err
}

type tryRecv struct{ t *tracedTransport }

func (w tryRecv) TryRecv() (diba.Message, bool, error) {
	inner := w.t.inner.(diba.TryRecver)
	if !w.t.on {
		return inner.TryRecv()
	}
	// A poll is a child of the round like any other transport call, but it
	// never waits, so it gets no span of its own.
	start := nanotime()
	m, ok, err := inner.TryRecv()
	w.t.recvNs += nanotime() - start
	w.t.tryRecvs++
	return m, ok, err
}

// wrapTransport returns inner wrapped for tracing, as a value that
// implements TimeoutRecver, TryRecver, PeerLiveness and WireAccountant each
// if and only if inner does, and the handle the harness reads counters from.
func wrapTransport(inner diba.Transport, node int) (diba.Transport, *tracedTransport) {
	t := &tracedTransport{inner: inner, node: node}
	_, hasTO := inner.(diba.TimeoutRecver)
	_, hasTry := inner.(diba.TryRecver)
	pl, hasPL := inner.(diba.PeerLiveness)
	wa, hasWA := inner.(diba.WireAccountant)
	to, try := timeoutRecv{t}, tryRecv{t}
	type (
		PL = diba.PeerLiveness
		WA = diba.WireAccountant
	)
	var out diba.Transport
	switch {
	case hasTO && hasTry && hasPL && hasWA:
		out = struct {
			*tracedTransport
			timeoutRecv
			tryRecv
			PL
			WA
		}{t, to, try, pl, wa}
	case hasTO && hasTry && hasPL:
		out = struct {
			*tracedTransport
			timeoutRecv
			tryRecv
			PL
		}{t, to, try, pl}
	case hasTO && hasTry && hasWA:
		out = struct {
			*tracedTransport
			timeoutRecv
			tryRecv
			WA
		}{t, to, try, wa}
	case hasTO && hasTry:
		out = struct {
			*tracedTransport
			timeoutRecv
			tryRecv
		}{t, to, try}
	case hasTO && hasPL && hasWA:
		out = struct {
			*tracedTransport
			timeoutRecv
			PL
			WA
		}{t, to, pl, wa}
	case hasTO && hasPL:
		out = struct {
			*tracedTransport
			timeoutRecv
			PL
		}{t, to, pl}
	case hasTO && hasWA:
		out = struct {
			*tracedTransport
			timeoutRecv
			WA
		}{t, to, wa}
	case hasTO:
		out = struct {
			*tracedTransport
			timeoutRecv
		}{t, to}
	case hasTry && hasPL && hasWA:
		out = struct {
			*tracedTransport
			tryRecv
			PL
			WA
		}{t, try, pl, wa}
	case hasTry && hasPL:
		out = struct {
			*tracedTransport
			tryRecv
			PL
		}{t, try, pl}
	case hasTry && hasWA:
		out = struct {
			*tracedTransport
			tryRecv
			WA
		}{t, try, wa}
	case hasTry:
		out = struct {
			*tracedTransport
			tryRecv
		}{t, try}
	case hasPL && hasWA:
		out = struct {
			*tracedTransport
			PL
			WA
		}{t, pl, wa}
	case hasPL:
		out = struct {
			*tracedTransport
			PL
		}{t, pl}
	case hasWA:
		out = struct {
			*tracedTransport
			WA
		}{t, wa}
	default:
		out = t
	}
	return out, t
}
