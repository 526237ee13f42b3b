package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"powercap/internal/diba"
)

func testSnapshot(seq uint64) *diba.StateSnapshot {
	return &diba.StateSnapshot{
		Seq:        seq,
		Node:       3,
		Round:      int(seq) * 10,
		CapW:       151.25,
		ConsensusW: 152.5,
		EstimateW:  -1.25,
		BudgetW:    900,
		Dead:       []int{1, 4},
		Health: []diba.PeerHealth{
			{Peer: 2, RTT: diba.RTTStats{Mean: 310 * time.Microsecond, P99: 900 * time.Microsecond, Samples: 42, Suspicion: 0.1}},
			{Peer: 4, RTT: diba.RTTStats{Degraded: true}, StaleRounds: 3, Outstanding: 1},
		},
		Wire:      diba.WireStats{MsgsSent: 100, MsgsRecv: 99, BytesSent: 2400, BytesRecv: 2376, Flushes: 50},
		WirePeers: []diba.PeerWire{{Peer: 2, Stats: diba.WireStats{MsgsSent: 50}}},
		Watchdog:  diba.WatchdogView{Enabled: true, Periods: 20, Violations: 2, Sheds: 1, MinDerate: 0.9},
	}
}

func newTestServer(t *testing.T) (*Server, *diba.StatePub) {
	t.Helper()
	var pub diba.StatePub
	s := New(Config{Node: 3, Workload: "quad", Pub: &pub, BudgetW: 900, MaxPending: 4})
	return s, &pub
}

// Every encoder must produce valid JSON — the encoders are hand-rolled
// append code, so round-trip each body through encoding/json.
func TestBodiesAreValidJSON(t *testing.T) {
	s, pub := newTestServer(t)
	if s.CapsBody() != nil || s.HealthBody() != nil || s.StatusBody() != nil {
		t.Fatal("bodies must be nil before the first publication")
	}
	pub.Publish(testSnapshot(0))

	for name, body := range map[string][]byte{
		"caps":   s.CapsBody(),
		"health": s.HealthBody(),
		"status": s.StatusBody(),
	} {
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s body is not valid JSON: %v\n%s", name, err, body)
		}
	}

	var caps struct {
		Seq      uint64  `json:"seq"`
		Node     int     `json:"node"`
		Round    int     `json:"round"`
		CapW     float64 `json:"cap_w"`
		BudgetW  float64 `json:"budget_w"`
		Dead     []int   `json:"dead"`
		Degraded bool    `json:"degraded"`
	}
	if err := json.Unmarshal(s.CapsBody(), &caps); err != nil {
		t.Fatal(err)
	}
	if caps.Seq != 1 || caps.Node != 3 || caps.CapW != 151.25 || caps.BudgetW != 900 {
		t.Fatalf("caps fields wrong: %+v", caps)
	}
	if len(caps.Dead) != 2 || caps.Dead[0] != 1 || caps.Dead[1] != 4 {
		t.Fatalf("dead list wrong: %v", caps.Dead)
	}

	var status struct {
		ID       int     `json:"id"`
		Workload string  `json:"workload"`
		CapW     float64 `json:"capW"`
		Round    int     `json:"round"`
	}
	if err := json.Unmarshal(s.StatusBody(), &status); err != nil {
		t.Fatal(err)
	}
	if status.ID != 3 || status.Workload != "quad" || status.CapW != 151.25 {
		t.Fatalf("status fields wrong: %+v", status)
	}
}

func TestHierAndEngineBodies(t *testing.T) {
	s, pub := newTestServer(t)
	hs := testSnapshot(0)
	hs.Hier = true
	hs.Group, hs.Epoch, hs.LeaseMw = 2, 7, 450_000
	hs.Aggregate, hs.Frozen = true, false
	hs.GrayPeers = []int{5}
	hs.Renewals, hs.Demotions = 12, 1
	pub.Publish(hs)
	var hier struct {
		Group   int   `json:"group"`
		Epoch   int   `json:"epoch"`
		LeaseMw int64 `json:"lease_mw"`
		Gray    []int `json:"gray"`
	}
	if err := json.Unmarshal(s.CapsBody(), &hier); err != nil {
		t.Fatalf("hier caps body: %v\n%s", err, s.CapsBody())
	}
	if hier.Group != 2 || hier.Epoch != 7 || hier.LeaseMw != 450_000 || len(hier.Gray) != 1 {
		t.Fatalf("hier fields wrong: %+v", hier)
	}

	pub.Publish(&diba.StateSnapshot{
		Node: -1, EngineMode: true, N: 4, Round: 9,
		BudgetW: 400, TotalPowW: 399.5, TotalUtil: 80.25,
		Caps: []float64{99, 100, 100.5, 100},
	})
	var eng struct {
		N     int       `json:"n"`
		Caps  []float64 `json:"caps_w"`
		Total float64   `json:"total_power_w"`
	}
	if err := json.Unmarshal(s.CapsBody(), &eng); err != nil {
		t.Fatalf("engine caps body: %v\n%s", err, s.CapsBody())
	}
	if eng.N != 4 || len(eng.Caps) != 4 || eng.Caps[2] != 100.5 || eng.Total != 399.5 {
		t.Fatalf("engine fields wrong: %+v", eng)
	}
}

// The steady-state read path must not allocate: same snapshot, repeated
// reads serve the cached encoding.
func TestCapsBodyZeroAllocSteadyState(t *testing.T) {
	s, pub := newTestServer(t)
	pub.Publish(testSnapshot(0))
	s.CapsBody() // warm the cache

	allocs := testing.AllocsPerRun(1000, func() {
		if s.CapsBody() == nil {
			t.Fatal("nil body")
		}
	})
	if allocs != 0 {
		t.Fatalf("CapsBody steady state allocated %.1f allocs/op, want 0", allocs)
	}
}

// A new snapshot must invalidate the cache, and an interleaved stale
// encoder must never clobber a newer entry (seq-guarded CAS).
func TestBodyCacheTracksLatestSnapshot(t *testing.T) {
	s, pub := newTestServer(t)
	pub.Publish(testSnapshot(0))
	b1 := append([]byte(nil), s.CapsBody()...)
	pub.Publish(testSnapshot(0)) // Publish stamps seq=2, round=20
	b2 := s.CapsBody()
	if bytes.Equal(b1, b2) {
		t.Fatal("cache served a stale body after a new publication")
	}
	if !strings.Contains(string(b2), `"seq":2`) {
		t.Fatalf("body does not reflect latest snapshot: %s", b2)
	}
	// Repeated reads of the same snapshot return the identical cached slice.
	if &b2[0] != &s.CapsBody()[0] {
		t.Fatal("cache re-encoded an unchanged snapshot")
	}
}

// Concurrent readers racing publications must always observe a valid JSON
// body for some published snapshot — never a torn or mixed encoding.
func TestConcurrentReadersRacePublisher(t *testing.T) {
	s, pub := newTestServer(t)
	// Publish stamps seq 1, 2, 3, ... in order; build each snapshot so
	// Round == Seq*10 and readers can detect a mixed encoding.
	pub.Publish(testSnapshot(1))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body := s.CapsBody()
				var v struct {
					Seq   uint64 `json:"seq"`
					Round int    `json:"round"`
				}
				if err := json.Unmarshal(body, &v); err != nil {
					t.Errorf("torn body: %v\n%s", err, body)
					return
				}
				if v.Round != int(v.Seq)*10 {
					t.Errorf("mixed encoding: seq=%d round=%d", v.Seq, v.Round)
					return
				}
			}
		}()
	}
	for i := 2; i <= 5000; i++ {
		pub.Publish(testSnapshot(uint64(i)))
	}
	close(stop)
	wg.Wait()
}

func TestCommandQueueCoalescesLatestWins(t *testing.T) {
	s, _ := newTestServer(t)
	if _, err := s.Enqueue(Command{Kind: CmdSetBudget, Key: "budget", BudgetW: 800}); err != nil {
		t.Fatal(err)
	}
	co, err := s.Enqueue(Command{Kind: CmdSetBudget, Key: "budget", BudgetW: 750})
	if err != nil || !co {
		t.Fatalf("second budget should coalesce: co=%v err=%v", co, err)
	}
	if _, err := s.Enqueue(Command{Kind: CmdShed, Key: "shed", Frac: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2 (budget coalesced)", got)
	}

	var got []Command
	applied, failed := s.Drain(func(c Command) error {
		got = append(got, c)
		return nil
	})
	if applied != 2 || failed != 0 {
		t.Fatalf("applied=%d failed=%d", applied, failed)
	}
	// Arrival order preserved; budget carries the LAST value.
	if got[0].Kind != CmdSetBudget || got[0].BudgetW != 750 {
		t.Fatalf("first drained command wrong: %+v", got[0])
	}
	if got[1].Kind != CmdShed || got[1].Frac != 0.2 {
		t.Fatalf("second drained command wrong: %+v", got[1])
	}
	if s.Pending() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

func TestCommandQueueBounded(t *testing.T) {
	s, _ := newTestServer(t) // MaxPending: 4
	for i := 0; i < 4; i++ {
		if _, err := s.Enqueue(Command{Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Enqueue(Command{Key: "overflow"}); err == nil {
		t.Fatal("fifth distinct key should be rejected")
	}
	// Coalescing into an existing key still works at capacity.
	if _, err := s.Enqueue(Command{Key: "k0", BudgetW: 1}); err != nil {
		t.Fatalf("coalesce at capacity rejected: %v", err)
	}
}

func TestHierModeRejectsCommands(t *testing.T) {
	var pub diba.StatePub
	s := New(Config{Node: 0, Pub: &pub, Hier: true})
	if _, err := s.Enqueue(Command{Kind: CmdSetBudget, Key: "budget", BudgetW: 500}); err == nil {
		t.Fatal("hier mode must reject budget commands")
	}
}

// End-to-end over real HTTP: endpoints, write validation, metrics text.
func TestHTTPEndpoints(t *testing.T) {
	s, pub := newTestServer(t)
	pub.Publish(testSnapshot(0))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	base := "http://" + s.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/v1/caps"); code != 200 || !strings.Contains(body, `"cap_w":151.25`) {
		t.Fatalf("GET /v1/caps = %d %s", code, body)
	}
	if code, body := get("/v1/health"); code != 200 || !strings.Contains(body, `"watchdog"`) {
		t.Fatalf("GET /v1/health = %d %s", code, body)
	}
	if code, body := get("/status"); code != 200 || !strings.Contains(body, `"workload":"quad"`) {
		t.Fatalf("GET /status = %d %s", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "powercap_cap_watts 151.25") ||
		!strings.Contains(body, `powercap_api_requests_total{path="caps"} 1`) {
		t.Fatalf("GET /metrics = %d %s", code, body)
	}

	if code, _ := post("/v1/budget", `{"budget_w":850}`); code != http.StatusAccepted {
		t.Fatalf("POST /v1/budget = %d", code)
	}
	if code, _ := post("/v1/powercap", `{"percentage":75}`); code != http.StatusAccepted {
		t.Fatalf("POST /v1/powercap = %d", code)
	}
	if code, _ := post("/v1/shed", `{"frac":0.2}`); code != http.StatusAccepted {
		t.Fatalf("POST /v1/shed = %d", code)
	}
	if code, _ := post("/v1/budget", `{"budget_w":-5}`); code != http.StatusBadRequest {
		t.Fatalf("negative budget accepted: %d", code)
	}
	if code, _ := post("/v1/powercap", `{"percentage":150}`); code != http.StatusBadRequest {
		t.Fatalf("percentage >100 accepted: %d", code)
	}
	if code, _ := post("/v1/budget", `{"bad_field":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", code)
	}
	// Writes are cluster-wide: a tenant-scoped body is rejected, not
	// silently widened (the budget check below shows it queued nothing).
	if code, _ := post("/v1/budget", `{"budget_w":500,"tenant":"a"}`); code != http.StatusBadRequest {
		t.Fatalf("tenant field accepted: %d", code)
	}

	// powercap coalesced onto the budget key: 75% of 900 = 675.
	var drained []Command
	s.Drain(func(c Command) error { drained = append(drained, c); return nil })
	if len(drained) != 2 {
		t.Fatalf("drained %d commands, want 2", len(drained))
	}
	if drained[0].Kind != CmdSetBudget || drained[0].BudgetW != 675 {
		t.Fatalf("budget command wrong: %+v", drained[0])
	}
}

func TestShutdownWithoutStart(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}
