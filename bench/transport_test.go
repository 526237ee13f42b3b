package main

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"powercap/internal/diba"
	"powercap/internal/workload"
)

// fakeNone is a transport with none of the optional interfaces; the other
// fakes add exactly one each, fakeAll all four.
type fakeNone struct{ sent, recvd int }

func (f *fakeNone) Send(int, diba.Message) error { f.sent++; return nil }
func (f *fakeNone) Recv() (diba.Message, error)  { f.recvd++; return diba.Message{From: 1}, nil }
func (f *fakeNone) Close() error                 { return errors.New("closed once") }

type fakeTO struct{ fakeNone }

func (f *fakeTO) RecvTimeout(time.Duration) (diba.Message, error) {
	return diba.Message{From: 2}, diba.ErrRecvTimeout
}

type fakeTry struct{ fakeNone }

func (f *fakeTry) TryRecv() (diba.Message, bool, error) { return diba.Message{From: 3}, true, nil }

type fakePL struct{ fakeNone }

func (f *fakePL) LastHeard(peer int) (time.Time, bool) { return time.Unix(int64(peer), 0), true }

type fakeWA struct{ fakeNone }

func (f *fakeWA) WireStats() map[int]diba.WireStats { return map[int]diba.WireStats{4: {MsgsSent: 4}} }
func (f *fakeWA) WireTotals() diba.WireStats        { return diba.WireStats{MsgsSent: 44} }

type fakeAll struct{ fakeNone }

func (f *fakeAll) RecvTimeout(time.Duration) (diba.Message, error) {
	return diba.Message{From: 2}, diba.ErrRecvTimeout
}
func (f *fakeAll) TryRecv() (diba.Message, bool, error) { return diba.Message{From: 3}, true, nil }
func (f *fakeAll) LastHeard(peer int) (time.Time, bool) { return time.Unix(int64(peer), 0), true }
func (f *fakeAll) WireStats() map[int]diba.WireStats    { return map[int]diba.WireStats{4: {MsgsSent: 4}} }
func (f *fakeAll) WireTotals() diba.WireStats           { return diba.WireStats{MsgsSent: 44} }

func TestWrapForwardsOptionalInterfacesExactly(t *testing.T) {
	tcp, err := diba.NewTCPTransport(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	cases := map[string]diba.Transport{
		"none": &fakeNone{}, "timeout": &fakeTO{}, "try": &fakeTry{}, "liveness": &fakePL{},
		"wire": &fakeWA{}, "all": &fakeAll{},
		"chan": diba.NewChanNetwork(2, 4).Endpoint(0), "tcp": tcp,
	}
	for name, inner := range cases {
		for _, on := range []bool{false, true} {
			w, tt := wrapTransport(inner, 0)
			tt.on = on
			_, innerTO := inner.(diba.TimeoutRecver)
			_, innerTry := inner.(diba.TryRecver)
			_, innerPL := inner.(diba.PeerLiveness)
			_, innerWA := inner.(diba.WireAccountant)
			to, hasTO := w.(diba.TimeoutRecver)
			try, hasTry := w.(diba.TryRecver)
			pl, hasPL := w.(diba.PeerLiveness)
			wa, hasWA := w.(diba.WireAccountant)
			if hasTO != innerTO || hasTry != innerTry || hasPL != innerPL || hasWA != innerWA {
				t.Errorf("%s: wrapper has TimeoutRecver=%v TryRecver=%v PeerLiveness=%v WireAccountant=%v, inner has %v %v %v %v",
					name, hasTO, hasTry, hasPL, hasWA, innerTO, innerTry, innerPL, innerWA)
			}
			if _, fake := inner.(interface{ Close() error }); !fake || name == "chan" || name == "tcp" {
				continue
			}
			// The fakes answer with fixed values; the wrapper must pass
			// them through whether or not its timers are on.
			if m, err := w.Recv(); err != nil || m.From != 1 {
				t.Errorf("%s: Recv = %v, %v", name, m, err)
			}
			if err := w.Send(1, diba.Message{}); err != nil {
				t.Errorf("%s: Send: %v", name, err)
			}
			if hasTO {
				if m, err := to.RecvTimeout(time.Second); m.From != 2 || !errors.Is(err, diba.ErrRecvTimeout) {
					t.Errorf("%s: RecvTimeout = %v, %v", name, m, err)
				}
			}
			if hasTry {
				if m, ok, err := try.TryRecv(); m.From != 3 || !ok || err != nil {
					t.Errorf("%s: TryRecv = %v, %v, %v", name, m, ok, err)
				}
			}
			if hasPL {
				if at, ok := pl.LastHeard(9); !ok || at.Unix() != 9 {
					t.Errorf("%s: LastHeard = %v, %v", name, at, ok)
				}
			}
			if hasWA {
				if wa.WireTotals().MsgsSent != 44 || wa.WireStats()[4].MsgsSent != 4 {
					t.Errorf("%s: wire counters not forwarded", name)
				}
			}
			if err := w.Close(); err == nil || err.Error() != "closed once" {
				t.Errorf("%s: Close = %v", name, err)
			}
			wantCounted := int64(0)
			if on {
				wantCounted = 1
			}
			if tt.sends != wantCounted {
				t.Errorf("%s: counted %d sends with timers on=%v", name, tt.sends, on)
			}
		}
	}
}

// runChanRing runs n agents for the given rounds over a ChanNetwork, with
// the transports wrapped (timers on) or bare, and returns every agent's
// final (Power, Estimate).
func runChanRing(t *testing.T, us []workload.Utility, rounds int, wrap bool) [][2]float64 {
	t.Helper()
	n := len(us)
	fabric := diba.NewChanNetwork(n, 64)
	out := make([][2]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tr := fabric.Endpoint(i)
		if wrap {
			var tt *tracedTransport
			tr, tt = wrapTransport(tr, i)
			tt.on = true
		}
		a, err := diba.NewAgent(i, []int{(i + n - 1) % n, (i + 1) % n}, us[i], float64(budgetHiPerNode*n), n,
			workload.DefaultServer.IdleWatts*float64(n), diba.Config{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := a.Run(rounds)
			out[i], errs[i] = [2]float64{st.Power, st.E}, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	return out
}

func TestWrappedRunIsBitwiseEqualToBare(t *testing.T) {
	us, err := ringUtilities(12, catalogOrder(), epochRNG(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	bare := runChanRing(t, us, 500, false)
	wrapped := runChanRing(t, us, 500, true)
	for i := range bare {
		for k, what := range []string{"Power", "Estimate"} {
			if math.Float64bits(bare[i][k]) != math.Float64bits(wrapped[i][k]) {
				t.Errorf("agent %d %s: %v bare, %v wrapped", i, what, bare[i][k], wrapped[i][k])
			}
		}
	}
}
