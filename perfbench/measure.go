package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// liveHeap records the live heap that each GC cycle completing during
// a timed run marked. Its median is the run's live heap: a single
// highest reading is an extreme statistic that depends on where in an
// op the few collections land.
type liveHeap struct {
	stop, done chan struct{}
	cycles     []float64 // MiB, one per completed cycle
}

func startLiveHeap() *liveHeap {
	h := &liveHeap{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	seen := s[0].Value.Uint64()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != seen {
				seen = c
				h.cycles = append(h.cycles, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// mib stops the sampler and returns the median live heap in MiB (the
// current reading when no cycle completed).
func (h *liveHeap) mib() float64 {
	close(h.stop)
	<-h.done
	if len(h.cycles) == 0 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	return median(h.cycles)
}

// rtSnap is a reading of the process's runtime counters.
type rtSnap struct {
	at                       time.Time
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64 // runtime/metrics CPU-class estimates, seconds
	mutexWait                float64 // seconds blocked on sync and runtime locks
	userCPU                  time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSnap{
		at:         time.Now(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
		mutexWait:  s[4].Value.Float64(),
		userCPU:    time.Duration(ru.Utime.Nano()),
	}
}

// runtimeLedger fills the runtime entries of the ledger from two
// readings around work that completed ops operations.
func runtimeLedger(rep *report, a, b rtSnap, ops int) {
	wall := b.at.Sub(a.at).Seconds()
	busy := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU)
	rep.values["runtime.alloc_kib_per_op"] = ratio(float64(b.allocBytes-a.allocBytes)/1024, float64(ops))
	rep.values["runtime.gc_cpu_pct"] = 100 * ratio(b.gcCPU-a.gcCPU, busy)
	rep.values["runtime.cpu_util"] = ratio((b.userCPU - a.userCPU).Seconds(), wall*float64(runtime.GOMAXPROCS(0)))
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced code paths call it
// unconditionally.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

type span struct {
	name       string
	id, parent int64 // parent 0: a root span
	op         int64 // the op the span belongs to (spans of one op share it)
	tid        int   // the goroutine slot that ran it (handset, worker)
	start, end time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the zero span when t is nil.
func (t *tracer) begin(name string, op, parent int64, tid int) span {
	if t == nil {
		return span{}
	}
	return span{name: name, id: t.nextID.Add(1), parent: parent, op: op, tid: tid, start: time.Now()}
}

// end closes and records s.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.end = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ms returns the durations of the named spans, in milliseconds.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end.Sub(s.start).Seconds()*1e3)
		}
	}
	return out
}

// selfMS returns, for each span with the given name, its duration less
// the time its direct children cover (children do not overlap their
// siblings on these paths), in milliseconds.
func (t *tracer) selfMS(name string) []float64 {
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end.Sub(s.start)-child[s.id]).Seconds()*1e3)
		}
	}
	return out
}

// sumMS is the total duration of the named spans in milliseconds.
func (t *tracer) sumMS(name string) float64 {
	var sum float64
	for _, v := range t.ms(name) {
		sum += v
	}
	return sum
}

// write stores the spans as a Chrome trace-event file (chrome://tracing,
// Perfetto): one complete event per span, args carrying op and parent.
func (t *tracer) write(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ledgerFiles names the traced run's artifacts for a workload.
func ledgerFiles(workload string) (spans, profile string, err error) {
	if err := os.MkdirAll(ledgerDir, 0o755); err != nil {
		return "", "", err
	}
	return filepath.Join(ledgerDir, workload+"-spans.json"), filepath.Join(ledgerDir, workload+"-cpu.pprof"), nil
}

// cpuProfile records a CPU profile until stop, which returns the
// self-time share (percent) of each layer package.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// layerPackages are the packages the ledger attributes CPU to; every
// other function counts as "other".
var layerPackages = []string{"vm", "jit", "isa", "mem", "energy", "radio", "core", "fleet", "obs", "runtime"}

func (p *cpuProfile) stop(rep *report) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	shares, err := packageShares(p.path)
	if err != nil {
		return err
	}
	for _, pkg := range append(layerPackages, "other") {
		rep.values["cpu."+pkg+"_pct"] = shares[pkg]
	}
	return nil
}

// packageShares reads a CPU profile with `go tool pprof -top` and sums
// each function's flat (self) share into its layer package.
func packageShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := map[string]float64{}
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: bad line %q", sc.Text())
		}
		shares[layerOf(strings.Join(f[5:], " "))] += pct
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return shares, nil
}

// layerOf maps a profiled function name to its layer package.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "greenvm/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layerPackages {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
