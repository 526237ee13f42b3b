package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// procProbe measures what the whole process cost between newProcProbe and
// report: CPU by rusage, the collector by MemStats, memory by peak RSS.
type procProbe struct {
	ru  syscall.Rusage
	mem runtime.MemStats
}

var goroutinesPeak atomic.Int64

// noteGoroutines samples the goroutine count for proc.goroutines_peak.
func noteGoroutines() {
	n := int64(runtime.NumGoroutine())
	for {
		old := goroutinesPeak.Load()
		if n <= old || goroutinesPeak.CompareAndSwap(old, n) {
			return
		}
	}
}

func newProcProbe() *procProbe {
	p := new(procProbe)
	syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&p.mem)
	return p
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// report stores the proc.* metrics; rounds is the run's node-round count
// (engine rounds for the simulator).
func (p *procProbe) report(r *report, rounds float64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	noteGoroutines()
	user := tvSeconds(ru.Utime) - tvSeconds(p.ru.Utime)
	sys := tvSeconds(ru.Stime) - tvSeconds(p.ru.Stime)
	r.set("proc.cpu_user_s", user)
	r.set("proc.cpu_sys_s", sys)
	r.set("proc.cpu_ms_per_kround", ratio((user+sys)*1e3, rounds/1e3))
	r.set("proc.gc_cycles", float64(mem.NumGC-p.mem.NumGC))
	r.set("proc.gc_pause_total_ms", float64(mem.PauseTotalNs-p.mem.PauseTotalNs)/1e6)
	r.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	r.set("proc.goroutines_peak", float64(goroutinesPeak.Load()))
}
