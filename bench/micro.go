package main

import (
	"time"

	"powercap/internal/ctlplane"
	"powercap/internal/diba"
)

// The micro loops time single calls into public functions a million times
// over. They run once, after the epochs of the traced flat12-tcp run (and,
// for the serving path, of the traced api12-mixed run).

const microOps = 1_000_000

var (
	sinkBytes []byte
	sinkMsg   diba.Message
	sinkSnap  *diba.StateSnapshot
)

// perOp times n calls of f and returns ns per call.
func perOp(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(n)
}

func microWire(r *report) {
	// wire: one round frame as an agent broadcasts it, one lease flood.
	est := diba.Message{From: 7, Round: 123456, E: -3.14159, Degree: 2, P: 151.25}
	lease := diba.Message{From: 4, Round: 123456, Kind: diba.MsgLease, Group: 1, Epoch: 3, Lease: 640_000, Seq: 77}
	buf := make([]byte, 0, 256)
	frame := diba.EncodeTo(buf, est)
	r.set("wire.estimate_frame_bytes", float64(len(frame)))
	r.set("wire.lease_frame_bytes", float64(len(diba.EncodeTo(nil, lease))))
	r.set("wire.encode_ns", perOp(microOps, func() { sinkBytes = diba.EncodeTo(buf[:0], est) }))
	decodeOK := true
	r.set("wire.decode_ns", perOp(microOps, func() {
		m, _, err := diba.Decode(frame)
		sinkMsg, decodeOK = m, decodeOK && err == nil
	}))
	r.op(decodeOK && sinkMsg == est, "wire: a round frame did not decode to what was encoded")
}

// microCtlplane times statepub and ctlplane on a server nobody else is
// using.
func microCtlplane(r *report) {
	pub := new(diba.StatePub)
	snap := func() *diba.StateSnapshot {
		return &diba.StateSnapshot{Node: 3, Round: 1000, CapW: 151.25, ConsensusW: 151.25, EstimateW: -0.31, BudgetW: 2040}
	}
	pub.Publish(snap())
	srv := ctlplane.New(ctlplane.Config{Node: 3, Workload: "micro", Pub: pub, BudgetW: 2040})
	r.set("statepub.load_ns", perOp(microOps, func() { sinkSnap = pub.Load() }))
	r.set("ctlplane.capsbody_hit_ns", perOp(microOps, func() { sinkBytes = srv.CapsBody() }))
	// A miss needs a fresh snapshot each time; publishing is timed out of it.
	const misses = 100_000
	var missNs int64
	for i := 0; i < misses; i++ {
		pub.Publish(snap())
		start := nanotime()
		sinkBytes = srv.CapsBody()
		missNs += nanotime() - start
	}
	r.set("ctlplane.capsbody_miss_ns", float64(missNs)/misses)
	cmd := ctlplane.Command{Kind: ctlplane.CmdSetBudget, Key: "budget", BudgetW: 1740}
	enqueueOK := true
	r.set("ctlplane.enqueue_ns", perOp(microOps, func() {
		_, err := srv.Enqueue(cmd)
		enqueueOK = enqueueOK && err == nil
	}))
	r.op(enqueueOK, "ctlplane: Enqueue failed in the micro loop")
	srv.Drain(func(ctlplane.Command) error { return nil })
}
