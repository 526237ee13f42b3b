// Command dibad is a standalone DiBA agent daemon — the per-server process
// of the dissertation's "working prototype of DiBA on a real experimental
// cluster". Each instance controls one server's power cap and exchanges
// estimates with its ring neighbors over TCP.
//
// A cluster is described by a peers file with one "id host:port" line per
// agent; the ring is implied by id order. An optional "chord <stride>"
// directive equips the ring with standby chord links (each node also
// connects to id±stride): they carry no estimate traffic in normal
// operation, but if a node dies the survivors activate them to keep the
// graph connected — the text's suggested repair topology. Example for a
// five-node cluster with chords:
//
//	chord 2
//	0 10.0.0.1:7946
//	1 10.0.0.2:7946
//	2 10.0.0.3:7946
//	3 10.0.0.4:7946
//	4 10.0.0.5:7946
//
// Run on each machine:
//
//	dibad -id 1 -peers peers.txt -budget 510 -workload CG -rounds 2000
//
// The daemon fits its workload's throughput model from a (simulated) DVFS
// sweep, joins the ring, runs the given number of DiBA rounds and prints
// the resulting power cap. For a single-machine demonstration across
// processes, see examples/tcpcluster which spawns agents on localhost.
//
// # Fault tolerance
//
// By default a daemon blocks forever if a neighbor goes silent. The
// following flags enable detection and recovery (see internal/diba's
// repair.go for the full fault model):
//
//	-gather-timeout 500ms  declare a neighbor dead after this much silence
//	                       in one round's gather (0 disables detection)
//	-heartbeat 100ms       transport-level liveness beacons; a peer whose
//	                       heartbeats still arrive is slow, not dead (the
//	                       detector grants it 3 intervals of grace)
//	-repair-margin 12      rounds between detection and chord activation;
//	                       must exceed the graph diameter (0 = cluster size)
//	-no-recover            fail fast with an error instead of repairing
//	-straggler             gray-failure mitigation: proceed past a slow (but
//	                       alive) neighbor at an adaptive per-peer deadline,
//	                       substituting its last estimate, and reconcile
//	                       exactly when the true frame lands; death detection
//	                       is unchanged (needs -gather-timeout)
//	-deadline-min 2ms      clamp on the adaptive deadline (0 = timeout/16)
//	-deadline-max 50ms     ceiling on per-round waiting (0 = timeout/2)
//	-max-lag 8             staleness bound in rounds for substituted
//	                       estimates; beyond it the edge is excluded (0 = 8)
//
// The exit log prints a per-peer gray-failure health report next to the
// wire statistics: round-trip mean/p99, silence-based suspicion, the
// degraded verdict, and how many rounds proceeded without the peer.
//
// On a detected death the survivors gossip the dead node's frozen state,
// shrink their budget view by its share (P − p_dead + e_dead), drop the
// dead edges and, if chords are configured, activate them at an agreed
// round. The final report line then shows the shrunk budget and dead set.
//
// # Hierarchical mode
//
// With -levels 2 the daemons form a two-level hierarchy instead of one flat
// ring: the peers file partitions the ids into leaf groups, each group runs
// its own DiBA ring against a budget lease, and the lowest live id of each
// group acts as the group's aggregate agent on the upper ring, migrating
// budget between groups under TTL'd leases (see internal/diba/hieragent.go
// for the failover and reconciliation protocol). Example peers file for two
// levels, three groups of three:
//
//	group 0 0 1 2
//	group 1 3 4 5
//	group 2 6 7 8
//	0 10.0.0.1:7946
//	... one line per id as usual ...
//
// Run every daemon with the same -levels 2 and a -gather-timeout (failover
// rides on the failure detector); -group and -rank optionally pin what the
// operator believes this daemon's placement is and fail fast on drift:
//
//	dibad -id 4 -peers peers.txt -levels 2 -group 1 -rank 1 \
//	      -budget 1530 -gather-timeout 500ms -lease-ttl 12 -until-round 2000
//
// Chords, -rounds 0 quiescence and snapshot/rejoin are flat-ring features
// and are rejected in hierarchical mode. The report line gains the group,
// lease, epoch, aggregate and frozen fields.
//
// # Chaos injection
//
// For fault-drill runs, the daemon can wrap its transport in the seeded
// fault injector (internal/diba's FaultTransport). All injection is
// deterministic per (seed, link, message index):
//
//	-chaos-seed 7            master seed (0 disables injection entirely)
//	-chaos-drop 0.01         probability a sent message is lost forever
//	-chaos-delay 0.2         probability a message is delayed …
//	-chaos-max-delay 5ms     … by up to this much
//	-chaos-dup 0.1           probability a message is delivered twice
//	-chaos-reorder 0.1       probability two messages on a link swap
//	-chaos-crash-after 1000  crash this daemon after that many sends
//	                         (-1 = never); crossing the threshold mid-round
//	                         truncates the broadcast, the hardest case for
//	                         the survivors' budget reconciliation
//	-chaos-partition-start 200ms  sever this daemon's links after that long …
//	-chaos-partition-dur 1s       … for this long; held messages flush at heal
//	-chaos-partition-scope group=1|all
//	                         group=<gid> severs that whole group from the rest
//	                         of the cluster (-levels 2; pass the same spec to
//	                         every daemon — each process only holds its own
//	                         outbound sends); all cuts this daemon's every link
//	-chaos-slow-node 3       degrade node 3: every lane touching it carries the
//	                         gray-failure latency below (each process holds its
//	                         own outbound sends, so pass the same spec to every
//	                         daemon for symmetric slowness)
//	-chaos-slow-delay 5ms    constant extra latency per affected message
//	-chaos-slow-jitter 1ms   uniform extra [0, jitter) on top of the delay
//	-chaos-slow-ramp 10s     scale the delay from 0 to full over this window
//	                         (a gradually degrading component)
//	-chaos-slow-period 2s    flap: slow for -chaos-slow-on of every period …
//	-chaos-slow-on 500ms     … and healthy for the rest (0 = always slow)
//	-chaos-slow-start 1s     activation offset from the fabric's first send
//
// # Control plane
//
// -api host:port serves the operator HTTP API (internal/ctlplane) over the
// agent's per-round published state snapshot: GET /v1/caps, /v1/health,
// /status (legacy shape) and /metrics (Prometheus text), plus POST
// /v1/budget, /v1/powercap and /v1/shed, which queue coalesced latest-wins
// commands applied at the next round boundary. Reads are lock-free and
// allocation-free at steady state and cannot delay a round; see "Control
// plane" in DESIGN.md and the API reference in README.md.
//
// # Shutdown
//
// On SIGINT or SIGTERM the daemon first shuts the control plane down
// gracefully (in-flight requests complete; nothing is dropped
// mid-response), then drains its per-connection send queues (coalesced
// batches flush; nothing queued is lost) and logs the same per-peer wire
// statistics a clean exit logs, then exits 0.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"powercap/internal/ctlplane"
	"powercap/internal/diba"
	"powercap/internal/safety"
	"powercap/internal/sensor"
	"powercap/internal/workload"
)

func main() {
	id := flag.Int("id", -1, "this agent's node id (line in the peers file)")
	peersPath := flag.String("peers", "", "path to the peers file: one 'id host:port' per line")
	budget := flag.Float64("budget", 0, "cluster-wide power budget in watts")
	bench := flag.String("workload", "EP", "benchmark this server runs (Table 4.1 name)")
	rounds := flag.Int("rounds", 2000, "DiBA rounds to execute (0 = run until the cluster self-detects quiescence)")
	timeout := flag.Duration("connect-timeout", 10*time.Second, "neighbor connect timeout")
	seed := flag.Int64("seed", 1, "seed for the characterization sweep noise")
	apiAddr := flag.String("api", "", "control-plane HTTP endpoint, e.g. 127.0.0.1:8080 (GET /v1/caps /v1/health /status /metrics, POST /v1/budget /v1/powercap /v1/shed)")
	chord := flag.Int("chord", 0, "standby chord stride (0 = peers-file 'chord' directive, if any)")
	gatherTimeout := flag.Duration("gather-timeout", 0, "declare a silent neighbor dead after this long (0 = detection off)")
	heartbeat := flag.Duration("heartbeat", 0, "transport heartbeat interval (0 = off)")
	repairMargin := flag.Int("repair-margin", 0, "rounds between death detection and chord activation (0 = cluster size)")
	noRecover := flag.Bool("no-recover", false, "fail with an error on a detected death instead of repairing")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault injection seed (0 = no injection)")
	chaosDrop := flag.Float64("chaos-drop", 0, "probability a sent message is permanently lost")
	chaosDelay := flag.Float64("chaos-delay", 0, "probability a sent message is delayed")
	chaosMaxDelay := flag.Duration("chaos-max-delay", 2*time.Millisecond, "maximum injected delay")
	chaosDup := flag.Float64("chaos-dup", 0, "probability a sent message is duplicated")
	chaosReorder := flag.Float64("chaos-reorder", 0, "probability two messages on a link are swapped")
	chaosCrashAfter := flag.Int("chaos-crash-after", -1, "crash this daemon after that many sends (-1 = never)")
	chaosSlowNode := flag.Int("chaos-slow-node", -1, "degrade this node id: every lane touching it carries the -chaos-slow-* latency (-1 = none)")
	chaosSlowDelay := flag.Duration("chaos-slow-delay", 5*time.Millisecond, "constant extra latency per message on the degraded node's lanes")
	chaosSlowJitter := flag.Duration("chaos-slow-jitter", 0, "uniform extra [0, jitter) per message on top of -chaos-slow-delay")
	chaosSlowRamp := flag.Duration("chaos-slow-ramp", 0, "scale the slow delay linearly from 0 to full over this window")
	chaosSlowPeriod := flag.Duration("chaos-slow-period", 0, "flap period: slow for -chaos-slow-on of every period (0 = always slow)")
	chaosSlowOn := flag.Duration("chaos-slow-on", 0, "active window within each -chaos-slow-period")
	chaosSlowStart := flag.Duration("chaos-slow-start", 0, "slowness activation offset from the fabric's first send")
	straggler := flag.Bool("straggler", false, "straggler-tolerant rounds: mitigate slow-but-alive neighbors at adaptive per-peer deadlines (needs -gather-timeout)")
	deadlineMin := flag.Duration("deadline-min", 0, "adaptive per-peer deadline floor (0 = gather-timeout/16)")
	deadlineMax := flag.Duration("deadline-max", 0, "adaptive per-peer deadline ceiling — the most one round waits on a straggler (0 = gather-timeout/2)")
	maxLag := flag.Int("max-lag", 0, "staleness bound in rounds for substituted estimates; beyond it the straggler's edge is excluded (0 = 8)")
	sensorSeed := flag.Int64("sensor-chaos-seed", 0, "sensor fault injection seed (0 = ideal sensor)")
	sensorStuck := flag.Float64("sensor-chaos-stuck", 0.002, "per-reading probability the sensor latches (with -sensor-chaos-seed)")
	sensorDropout := flag.Float64("sensor-chaos-dropout", 0.01, "per-reading probability the reading is lost (NaN)")
	sensorSpike := flag.Float64("sensor-chaos-spike", 0.01, "per-reading probability of a transient spike")
	sensorDrift := flag.Float64("sensor-chaos-drift", 0.003, "per-reading step scale of the downward calibration drift")
	sensorQuant := flag.Float64("sensor-chaos-quant", 0.25, "reading quantization step in watts")
	watchdog := flag.Bool("watchdog", false, "run a local cap-safety watchdog over the filtered telemetry")
	snapshotPath := flag.String("snapshot", "", "operational snapshot file, written atomically every -snapshot-every rounds")
	snapshotEvery := flag.Int("snapshot-every", 50, "rounds between snapshot writes (with -snapshot)")
	rejoin := flag.Bool("rejoin", false, "resume from -snapshot and rejoin the ring after this daemon was declared dead")
	untilRound := flag.Int("until-round", 0, "run until the round counter reaches this value (overrides -rounds; a rejoiner starts mid-count)")
	roundInterval := flag.Duration("round-interval", 0, "sleep between rounds, pacing the run for drills")
	wire := flag.String("wire", "binary", "wire codec written to peers: binary or json (reading always auto-detects, so mixed clusters interoperate)")
	levels := flag.Int("levels", 1, "hierarchy levels: 1 = flat ring, 2 = leaf groups under aggregate agents (peers file needs 'group' directives)")
	groupFlag := flag.Int("group", -1, "expected group index of this agent; fail fast if the peers file disagrees (-levels 2)")
	rankFlag := flag.Int("rank", -1, "expected failover rank of this agent within its group; fail fast on mismatch (-levels 2)")
	leaseTTL := flag.Int("lease-ttl", 0, "rounds a budget lease stays valid without renewal before the group freezes (0 = protocol default)")
	chaosPartStart := flag.Duration("chaos-partition-start", 0, "partition window start relative to the first send (with -chaos-partition-dur)")
	chaosPartDur := flag.Duration("chaos-partition-dur", 0, "partition window length; this daemon's cut links hold messages and flush at heal (0 = no partition)")
	chaosPartScope := flag.String("chaos-partition-scope", "all", "links the partition cuts: group=<gid> (sever that group from the cluster, -levels 2, same spec on every daemon) or all (every connected peer)")
	flag.Parse()

	if *id < 0 || *peersPath == "" || *budget <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	addrs, fileStride, groups, err := readPeers(*peersPath)
	if err != nil {
		log.Fatalf("dibad: %v", err)
	}
	n := len(addrs)
	self, ok := addrs[*id]
	if !ok {
		log.Fatalf("dibad: id %d not present in peers file", *id)
	}
	hier := *levels >= 2
	if hier {
		if *levels > 2 {
			log.Fatalf("dibad: -levels %d not supported (1 or 2)", *levels)
		}
		if len(groups) == 0 {
			log.Fatalf("dibad: -levels 2 needs 'group' directives in the peers file")
		}
		if *chord != 0 || fileStride != 0 {
			log.Fatalf("dibad: chords are the flat ring's repair topology; not valid with -levels 2")
		}
		if *gatherTimeout <= 0 {
			log.Fatalf("dibad: -levels 2 requires -gather-timeout (aggregate failover rides on the failure detector)")
		}
		if *rejoin || *snapshotPath != "" {
			log.Fatalf("dibad: snapshot/rejoin is not supported with -levels 2")
		}
		if *rounds == 0 && *untilRound == 0 {
			log.Fatalf("dibad: -levels 2 needs -rounds or -until-round (quiescence detection is flat-only)")
		}
	} else if len(groups) > 0 {
		log.Fatalf("dibad: peers file declares groups; run with -levels 2")
	} else if n < 3 {
		log.Fatalf("dibad: a ring needs at least 3 agents, peers file has %d", n)
	}
	stride := *chord
	if stride == 0 {
		stride = fileStride
	}
	if stride != 0 && (stride < 2 || stride > n-2) {
		log.Fatalf("dibad: chord stride %d out of range [2, %d]", stride, n-2)
	}

	b, err := workload.ByName(workload.HPC, *bench)
	if err != nil {
		log.Fatalf("dibad: %v", err)
	}
	srv := workload.DefaultServer
	rng := rand.New(rand.NewSource(*seed + int64(*id)))
	util, err := workload.FitFromSweep(b, srv, 0.01, rng)
	if err != nil {
		log.Fatalf("dibad: characterizing %s: %v", *bench, err)
	}

	codec, err := diba.ParseWireCodec(*wire)
	if err != nil {
		log.Fatalf("dibad: %v", err)
	}
	opts := []diba.TCPOption{diba.WithWireCodec(codec)}
	if *heartbeat > 0 {
		opts = append(opts, diba.WithHeartbeat(*heartbeat))
	}
	tcp, err := diba.NewTCPTransport(*id, self, opts...)
	if err != nil {
		log.Fatalf("dibad: %v", err)
	}
	defer tcp.Close()
	topo := diba.HierTopo{Groups: groups, BudgetW: *budget, IdleW: srv.IdleWatts}
	var neighbors, standby, conns []int
	if hier {
		if err := topo.Validate(); err != nil {
			log.Fatalf("dibad: %v", err)
		}
		// Every member connects to the whole adjacent groups, not just their
		// current aggregates: failover can move the aggregate role to any
		// rank, and the links must already be up when it does.
		neighbors = topo.LeafNeighbors(*id)
		conns = append(append([]int{}, neighbors...), topo.UpperPeers(*id)...)
		log.Printf("dibad: agent %d listening on %s, group %d ring %v, upper-level peers %v",
			*id, tcp.Addr(), topo.GroupOf(*id), neighbors, topo.UpperPeers(*id))
	} else {
		neighbors = []int{(*id + n - 1) % n, (*id + 1) % n}
		standby = chordPartners(*id, n, stride, neighbors)
		conns = append(append([]int{}, neighbors...), standby...)
		log.Printf("dibad: agent %d listening on %s, ring neighbors %v, standby chords %v", *id, tcp.Addr(), neighbors, standby)
	}
	if err := tcp.ConnectNeighbors(conns, addrs, *timeout); err != nil {
		log.Fatalf("dibad: %v", err)
	}

	var partitions []diba.Partition
	if *chaosPartDur > 0 {
		if rest, ok := strings.CutPrefix(*chaosPartScope, "group="); ok {
			// Sever one whole group from the rest of the cluster. Every
			// daemon must run with the same spec: each process's injector only
			// holds its own outbound sends, so the outage is bidirectional
			// only when both sides of every cut link carry the partition.
			var gid int
			if _, err := fmt.Sscanf(rest, "%d", &gid); err != nil || !hier || gid < 0 || gid >= len(groups) {
				log.Fatalf("dibad: bad -chaos-partition-scope %q (needs -levels 2 and a valid group id)", *chaosPartScope)
			}
			var outside []int
			for other := range addrs {
				if topo.GroupOf(other) != gid {
					outside = append(outside, other)
				}
			}
			partitions = diba.SeverGroups(topo.Groups[gid], outside, *chaosPartStart, *chaosPartDur)
		} else if *chaosPartScope == "all" {
			partitions = diba.IsolateNode(*id, conns, *chaosPartStart, *chaosPartDur)
		} else {
			log.Fatalf("dibad: unknown -chaos-partition-scope %q", *chaosPartScope)
		}
		if *chaosSeed == 0 {
			log.Fatalf("dibad: partition windows need -chaos-seed to enable injection")
		}
	}
	if *chaosSlowNode >= 0 && *chaosSeed == 0 {
		log.Fatalf("dibad: -chaos-slow-node needs -chaos-seed to enable injection")
	}
	var tr diba.Transport = tcp
	if *chaosSeed != 0 {
		plan := &diba.FaultPlan{
			Seed:        *chaosSeed,
			DropProb:    *chaosDrop,
			DelayProb:   *chaosDelay,
			MaxDelay:    *chaosMaxDelay,
			DupProb:     *chaosDup,
			ReorderProb: *chaosReorder,
			Partitions:  partitions,
		}
		if *chaosCrashAfter >= 0 {
			plan.CrashAfterSends = map[int]int{*id: *chaosCrashAfter}
		}
		if *chaosSlowNode >= 0 {
			plan.SlowNodes = map[int]diba.SlowSpec{*chaosSlowNode: {
				Delay:    *chaosSlowDelay,
				Jitter:   *chaosSlowJitter,
				RampOver: *chaosSlowRamp,
				Period:   *chaosSlowPeriod,
				On:       *chaosSlowOn,
				Start:    *chaosSlowStart,
			}}
		}
		log.Printf("dibad: agent %d chaos injection on: %v", *id, plan)
		tr = diba.NewFaultTransport(tcp, *id, plan)
	}

	// Every agent derives its initial estimate from the published cluster
	// parameters: budget, size, and the common idle floor.
	var agent *diba.Agent
	var hagent *diba.HierAgent
	if hier {
		hagent, err = diba.NewHierAgent(topo, diba.HierPolicy{LeaseTTL: *leaseTTL}, *id, util, diba.Config{}, tr)
		if err != nil {
			log.Fatalf("dibad: %v", err)
		}
		agent = hagent.Agent()
		if *groupFlag >= 0 && hagent.Group() != *groupFlag {
			log.Fatalf("dibad: peers file places id %d in group %d, -group says %d", *id, hagent.Group(), *groupFlag)
		}
		if *rankFlag >= 0 && hagent.Rank() != *rankFlag {
			log.Fatalf("dibad: id %d has failover rank %d in its group, -rank says %d", *id, hagent.Rank(), *rankFlag)
		}
		log.Printf("dibad: agent %d group %d rank %d lease %d mw aggregate=%v",
			*id, hagent.Group(), hagent.Rank(), hagent.Lease(), hagent.IsAggregate())
	} else {
		totalIdle := srv.IdleWatts * float64(n)
		agent, err = diba.NewAgent(*id, neighbors, util, *budget, n, totalIdle, diba.Config{}, tr)
		if err != nil {
			log.Fatalf("dibad: %v", err)
		}
		if len(standby) > 0 {
			agent.SetStandby(standby)
		}
	}
	if *straggler && *gatherTimeout <= 0 {
		log.Fatalf("dibad: -straggler requires -gather-timeout (the adaptive deadlines derive from it)")
	}
	if *gatherTimeout > 0 {
		fp := diba.FaultPolicy{
			GatherTimeout:     *gatherTimeout,
			RepairMargin:      *repairMargin,
			Recover:           !*noRecover,
			StragglerTolerant: *straggler,
			DeadlineMin:       *deadlineMin,
			DeadlineMax:       *deadlineMax,
			MaxLag:            *maxLag,
			OnEvent: func(ev diba.FaultEvent) {
				log.Printf("dibad: agent %d round %d %s node %d: %s", *id, ev.Round, ev.Kind, ev.Node, ev.Info)
			},
		}
		if *heartbeat > 0 {
			fp.HeartbeatGrace = 3 * *heartbeat
		}
		agent.SetFaultPolicy(fp)
	}

	// Telemetry hardening: the agent reads its own power through a filtered
	// (and optionally fault-injected) sensor pipeline; while the reading is
	// invalid it freezes its applied cap and beacons degraded health.
	var pipe *sensor.Pipeline
	if *sensorSeed != 0 || *watchdog {
		pipe = &sensor.Pipeline{Filter: sensor.NewFilter(0.85*srv.IdleWatts, 1.05*srv.MaxWatts)}
		if *sensorSeed != 0 {
			plan := sensor.Plan{
				Seed:        *sensorSeed,
				StuckProb:   *sensorStuck,
				DropoutProb: *sensorDropout,
				SpikeProb:   *sensorSpike,
				DriftRel:    *sensorDrift,
				QuantStep:   *sensorQuant,
			}
			log.Printf("dibad: agent %d sensor chaos on: %v", *id, plan)
			pipe.Meter = sensor.NewMeter(plan, *id)
		}
		agent.SetTelemetryGuard(diba.TelemetryGuard{
			Measure: func(expected float64) (float64, bool) {
				// The server sits at the cap the agent applies; the meter
				// corrupts that reading per its fault plan.
				return pipe.Measure(expected, expected)
			},
			OnEvent: func(ev diba.HealthEvent) {
				state := "recovered"
				if ev.Degraded {
					state = "degraded"
				}
				log.Printf("dibad: agent %d round %d telemetry %s, applied cap %.2f W", *id, ev.Round, state, ev.AppliedW)
			},
		})
	}
	var wd *safety.Watchdog
	if *watchdog {
		// A single daemon cannot see ΣP, so its watchdog checks the local
		// invariant: a *trusted* filtered reading must track the consensus
		// cap. The watts-scale tolerance absorbs the filter's EWMA lag while
		// the cap converges; a stuck or drifted sensor parks the reading away
		// from the moving cap and trips it.
		wd = safety.New(safety.Config{ToleranceW: 5})
	}

	if *rejoin {
		if *snapshotPath == "" {
			log.Fatalf("dibad: -rejoin requires -snapshot")
		}
		if *gatherTimeout <= 0 {
			log.Fatalf("dibad: -rejoin requires -gather-timeout (the handshake runs on the failure detector)")
		}
		f, err := os.Open(*snapshotPath)
		if err != nil {
			log.Fatalf("dibad: %v", err)
		}
		err = agent.ReadSnapshot(f)
		f.Close()
		if err != nil {
			log.Fatalf("dibad: %v", err)
		}
		log.Printf("dibad: agent %d resumed from %s at round %d; rejoining the ring", *id, *snapshotPath, agent.Round())
		if err := agent.Rejoin(60 * time.Second); err != nil {
			log.Fatalf("dibad: %v", err)
		}
		log.Printf("dibad: agent %d rejoined, resuming at round %d", *id, agent.Round())
	}

	// Control plane: the agent publishes an immutable snapshot per round
	// (internal/diba/publish.go); the HTTP server serves only those
	// snapshots, so no request can ever block or perturb a round. The
	// decorator runs on the agent goroutine at publish time and attaches
	// what the consensus layer cannot see: transport counters and the
	// watchdog's status.
	var api *ctlplane.Server
	if *apiAddr != "" {
		pub := new(diba.StatePub)
		pub.SetDecorator(func(s *diba.StateSnapshot) {
			s.Wire = tcp.WireTotals()
			stats := tcp.WireStats()
			peers := make([]int, 0, len(stats))
			for p := range stats {
				peers = append(peers, p)
			}
			sort.Ints(peers)
			pws := make([]diba.PeerWire, 0, len(peers))
			for _, p := range peers {
				pws = append(pws, diba.PeerWire{Peer: p, Stats: stats[p]})
			}
			s.WirePeers = pws
			if wd != nil {
				st := wd.Stats()
				s.Watchdog = diba.WatchdogView{
					Enabled: true, Periods: st.Periods, Violations: st.Violations,
					Sheds: st.Sheds, Releases: st.Releases, MinDerate: st.MinDerate,
				}
			}
		})
		if hagent != nil {
			hagent.PublishState(pub)
		} else {
			agent.PublishState(pub)
		}
		api = ctlplane.New(ctlplane.Config{
			Node: *id, Workload: *bench, Pub: pub, BudgetW: *budget, Hier: hier,
		})
		if err := api.Start(*apiAddr); err != nil {
			log.Fatalf("dibad: api listen: %v", err)
		}
		log.Printf("dibad: agent %d control plane at http://%s/ (GET /v1/caps /v1/health /status /metrics)", *id, api.Addr())
	}

	// Queued control-plane writes land here, on the agent goroutine at a
	// round boundary. A budget set is applied as a delta against this
	// node's current view (SetBudgetDelta's contract: the operator posts
	// the same budget to every daemon, and each shifts its estimate by
	// delta/n).
	applyCmd := func(c ctlplane.Command) error {
		switch c.Kind {
		case ctlplane.CmdSetBudget:
			delta := c.BudgetW - agent.Budget()
			agent.SetBudgetDelta(delta, n)
			log.Printf("dibad: agent %d round %d budget set to %.2f W (delta %+.2f W)", *id, agent.Round(), c.BudgetW, delta)
		case ctlplane.CmdShed:
			delta := -c.Frac * agent.Budget()
			agent.SetBudgetDelta(delta, n)
			log.Printf("dibad: agent %d round %d emergency shed %.0f%%: budget now %.2f W", *id, agent.Round(), c.Frac*100, agent.Budget())
		default:
			return fmt.Errorf("unknown command kind %v", c.Kind)
		}
		return nil
	}

	// Hierarchical role and lease transitions are logged as they happen so
	// fault drills can assert failover and freeze/thaw from the outside.
	lastFrozen, lastAgg := false, hagent != nil && hagent.IsAggregate()
	hierRound := func() {
		if hagent == nil {
			return
		}
		if f := hagent.Frozen(); f != lastFrozen {
			lastFrozen = f
			if f {
				log.Printf("dibad: agent %d round %d lease expired; froze at %.2f W (lease %d mw minus margin)",
					*id, agent.Round(), agent.Budget(), hagent.Lease())
			} else {
				log.Printf("dibad: agent %d round %d lease view restored; thawed at %.2f W", *id, agent.Round(), agent.Budget())
			}
		}
		if a := hagent.IsAggregate(); a != lastAgg {
			lastAgg = a
			if a {
				log.Printf("dibad: agent %d round %d promoted to aggregate of group %d (epoch %d)",
					*id, agent.Round(), hagent.Group(), hagent.Epoch())
			} else {
				log.Printf("dibad: agent %d round %d demoted from aggregate of group %d (epoch %d)",
					*id, agent.Round(), hagent.Group(), hagent.Epoch())
			}
		}
	}

	// perRound runs the operational side channels after each BSP round:
	// queued control-plane writes, snapshotting, the local watchdog, and
	// drill pacing.
	perRound := func() {
		hierRound()
		if api != nil {
			api.Drain(applyCmd)
		}
		if *snapshotPath != "" && *snapshotEvery > 0 && agent.Round()%*snapshotEvery == 0 {
			if err := writeSnapshot(agent, *snapshotPath); err != nil {
				log.Printf("dibad: snapshot: %v", err)
			}
		}
		if wd != nil && pipe != nil {
			// A distrusted reading holds last-good — stale data proves
			// nothing, and the TelemetryGuard has already frozen the applied
			// cap for that case.
			if last := pipe.Last(); last.Trusted {
				if _, shed := wd.Observe(last.Value, agent.Power()); shed {
					log.Printf("dibad: agent %d round %d watchdog: filtered power %.2f W over consensus cap %.2f W; emergency shed",
						*id, agent.Round(), last.Value, agent.Power())
				}
			}
		}
		if *roundInterval > 0 {
			time.Sleep(*roundInterval)
		}
	}

	// A signal shutdown must lose nothing that a clean exit would not: drain
	// the per-connection send queues (coalesced batches flush on Close) and
	// log the same per-peer wire report, then exit 0. The step loop sees the
	// closed transport as an error; the draining flag turns that into a wait
	// for the handler's exit instead of a spurious failure.
	var draining atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		draining.Store(true)
		log.Printf("dibad: agent %d caught %v; draining send queues", *id, sig)
		// In-flight control-plane requests finish before the consensus
		// transport goes down: the listener closes first, accepted requests
		// get a deadline to complete, and none is dropped mid-response.
		if api != nil {
			if err := api.Shutdown(2 * time.Second); err != nil {
				log.Printf("dibad: agent %d api shutdown: %v", *id, err)
			}
			log.Printf("dibad: agent %d api drained", *id)
		}
		_ = tcp.Close()
		logWireReport(tcp, codec, *id)
		logHealthReport(agent, tcp, *id)
		log.Printf("dibad: agent %d drained, exiting", *id)
		os.Exit(0)
	}()
	stepFail := func(round int, err error) {
		// A cluster-wide SIGTERM races: a peer's drain-close can surface in
		// the step loop before this process's own handler has run. Give the
		// handler a beat before declaring the error fatal.
		for i := 0; i < 10; i++ {
			if draining.Load() {
				select {} // the signal handler finishes the drain and exits
			}
			time.Sleep(50 * time.Millisecond)
		}
		log.Fatalf("dibad: round %d: %v", round, err)
	}

	step := agent.StepOnce
	if hagent != nil {
		step = hagent.Step
	}
	start := time.Now()
	var final diba.AgentState
	if *untilRound > 0 {
		for agent.Round() < *untilRound {
			if err := step(); err != nil {
				stepFail(agent.Round(), err)
			}
			perRound()
		}
		final = diba.AgentState{Power: agent.Power(), E: agent.Estimate(), Rounds: agent.Round(), Budget: agent.Budget(), Dead: agent.DeadNodes()}
	} else if *rounds == 0 {
		// Coordinator-free stopping: every agent runs the same rule and all
		// halt at the identical round (margin n exceeds any ring diameter).
		st, err := agent.RunUntilQuiet(diba.QuietConfig{TolW: 1e-3, Settle: 50, Margin: n, MaxRounds: 200000})
		if err != nil {
			stepFail(agent.Round(), err)
		}
		final = st
	} else {
		for r := 0; r < *rounds; r++ {
			if err := step(); err != nil {
				stepFail(r, err)
			}
			perRound()
		}
		final = diba.AgentState{Power: agent.Power(), E: agent.Estimate(), Rounds: *rounds, Budget: agent.Budget(), Dead: agent.DeadNodes()}
	}
	if *snapshotPath != "" && !*rejoin {
		if err := writeSnapshot(agent, *snapshotPath); err != nil {
			log.Printf("dibad: final snapshot: %v", err)
		}
	}
	if wd != nil {
		log.Printf("dibad: agent %d watchdog: %+v", *id, wd.Stats())
	}
	if api != nil {
		if err := api.Shutdown(2 * time.Second); err != nil {
			log.Printf("dibad: agent %d api shutdown: %v", *id, err)
		}
	}
	logWireReport(tcp, codec, *id)
	logHealthReport(agent, tcp, *id)
	extra := ""
	if hagent != nil {
		extra = fmt.Sprintf(" group=%d lease=%dmw epoch=%d agg=%v frozen=%v",
			hagent.Group(), hagent.Lease(), hagent.Epoch(), hagent.IsAggregate(), hagent.Frozen())
	}
	fmt.Printf("agent %d: workload=%s cap=%.2fW estimate=%.4f rounds=%d budget=%.2fW dead=%v%s elapsed=%v\n",
		*id, *bench, final.Power, final.E, final.Rounds, final.Budget, final.Dead, extra, time.Since(start).Round(time.Millisecond))
}

// logWireReport logs the wire-level traffic counters, per peer and in
// total — the one report both a clean exit and a signal-drained shutdown
// must produce identically.
func logWireReport(tcp *diba.TCPTransport, codec diba.WireCodec, id int) {
	stats := tcp.WireStats()
	peers := make([]int, 0, len(stats))
	for p := range stats {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		ws := stats[p]
		log.Printf("dibad: agent %d wire[%s] peer %d: sent %d msgs / %d B in %d flushes, recv %d msgs / %d B",
			id, codec, p, ws.MsgsSent, ws.BytesSent, ws.Flushes, ws.MsgsRecv, ws.BytesRecv)
	}
	wt := tcp.WireTotals()
	log.Printf("dibad: agent %d wire[%s]: sent %d msgs / %d B in %d flushes, recv %d msgs / %d B",
		id, codec, wt.MsgsSent, wt.BytesSent, wt.Flushes, wt.MsgsRecv, wt.BytesRecv)
}

// logHealthReport logs the per-peer gray-failure verdicts next to the wire
// report: the agent's gather-level round-trip statistics, suspicion and
// mitigation counters (only present when a fault policy is installed), and
// the transport's own ping-echo estimators (only present with -heartbeat).
func logHealthReport(a *diba.Agent, tcp *diba.TCPTransport, id int) {
	for _, ph := range a.PeerHealth() {
		log.Printf("dibad: agent %d health peer %d: gather rtt mean %v p99 %v (%d samples) suspicion %.2f degraded=%v stale-rounds=%d outstanding=%d",
			id, ph.Peer, ph.RTT.Mean.Round(time.Microsecond), ph.RTT.P99.Round(time.Microsecond),
			ph.RTT.Samples, ph.RTT.Suspicion, ph.RTT.Degraded, ph.StaleRounds, ph.Outstanding)
	}
	stats := tcp.RTTStats()
	peers := make([]int, 0, len(stats))
	for p := range stats {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		st := stats[p]
		if st.Samples == 0 {
			continue
		}
		log.Printf("dibad: agent %d health peer %d: wire rtt mean %v p99 %v (%d echoes) suspicion %.2f degraded=%v",
			id, p, st.Mean.Round(time.Microsecond), st.P99.Round(time.Microsecond),
			st.Samples, st.Suspicion, st.Degraded)
	}
}

// writeSnapshot persists the agent's state atomically: write to a temp file
// in the same directory, fsync, then rename over the target. A crash mid-write
// leaves the previous snapshot intact, which is what -rejoin restores from.
func writeSnapshot(a *diba.Agent, path string) error {
	dir := "."
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dir = path[:i]
	}
	tmp, err := os.CreateTemp(dir, ".dibad-snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := a.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// chordPartners returns the standby chord neighbors id±stride (mod n),
// excluding self and anything already a ring neighbor.
func chordPartners(id, n, stride int, ring []int) []int {
	if stride == 0 {
		return nil
	}
	inRing := func(x int) bool {
		for _, r := range ring {
			if r == x {
				return true
			}
		}
		return false
	}
	set := map[int]bool{}
	for _, c := range []int{(id + stride) % n, (id - stride + n) % n} {
		if c != id && !inRing(c) {
			set[c] = true
		}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// readPeers parses a peers file: one "id host:port" per line, plus an
// optional "chord <stride>" directive selecting the standby chord topology
// and optional "group <gid> <id> <id>..." directives partitioning the ids
// into the leaf groups of the two-level hierarchy (-levels 2). Group ids
// must be dense from 0; every agent id must belong to exactly one group
// when any group directive is present.
func readPeers(path string) (map[int]string, int, [][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer f.Close()
	out := make(map[int]string)
	stride := 0
	groupOf := make(map[int]int)
	var groups [][]int
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(text, "chord "); ok {
			if _, err := fmt.Sscanf(rest, "%d", &stride); err != nil || stride < 2 {
				return nil, 0, nil, fmt.Errorf("peers file line %d: bad chord directive %q", line, text)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(text, "group "); ok {
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				return nil, 0, nil, fmt.Errorf("peers file line %d: group directive needs a group id and at least one member", line)
			}
			var gid int
			if _, err := fmt.Sscanf(fields[0], "%d", &gid); err != nil || gid != len(groups) {
				return nil, 0, nil, fmt.Errorf("peers file line %d: group ids must be dense from 0 in order, got %q", line, fields[0])
			}
			var members []int
			for _, fd := range fields[1:] {
				var m int
				if _, err := fmt.Sscanf(fd, "%d", &m); err != nil {
					return nil, 0, nil, fmt.Errorf("peers file line %d: bad member id %q", line, fd)
				}
				if g, dup := groupOf[m]; dup {
					return nil, 0, nil, fmt.Errorf("peers file line %d: id %d already in group %d", line, m, g)
				}
				groupOf[m] = gid
				members = append(members, m)
			}
			groups = append(groups, members)
			continue
		}
		var id int
		var addr string
		if _, err := fmt.Sscanf(text, "%d %s", &id, &addr); err != nil {
			return nil, 0, nil, fmt.Errorf("peers file line %d: %v", line, err)
		}
		if _, dup := out[id]; dup {
			return nil, 0, nil, fmt.Errorf("peers file line %d: duplicate id %d", line, id)
		}
		out[id] = addr
	}
	if err := sc.Err(); err != nil {
		return nil, 0, nil, err
	}
	if len(groups) > 0 {
		for id := range out {
			if _, ok := groupOf[id]; !ok {
				return nil, 0, nil, fmt.Errorf("peers file: id %d belongs to no group", id)
			}
		}
		for id := range groupOf {
			if _, ok := out[id]; !ok {
				return nil, 0, nil, fmt.Errorf("peers file: group member %d has no address line", id)
			}
		}
	}
	return out, stride, groups, nil
}
