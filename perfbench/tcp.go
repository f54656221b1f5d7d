package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"greenvm/internal/apps"
	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/rng"
)

// offload-tcp: the mjserver shape on loopback. A core.SessionServer
// sits behind core.NewSessionTCPServer, and tcpHandsets handsets, each
// on its own core.DialServer connection, run mf in a closed loop with
// StrategyR. The op is one Client.Invoke: serialization, wire framing,
// wall-clock admission, the session cache and a server re-execution.
// Inputs are fresh draws from the app's sizes except a fixed 30%
// that repeat a recent input, so they are session-cache hits; server
// inputs are otherwise unique.

const (
	tcpHandsets = 2 // = nproc of the reference box; one connection each
	tcpWarmOps  = 6 // warm-up ops per handset in each set-up
	tcpRecent   = 4 // a repeat re-sends one of this many latest fresh inputs

	// The pinned inputs: the first tcpPinOps fresh inputs of the stream
	// seeded with tcpPinSeed, run through the in-process reference, must
	// digest to tcpPinDigest in every run. The per-op check compares the
	// TCP path with an in-process run of the same server code; this one
	// catches a change that makes both wrong in the same way.
	tcpPinSeed   = 4242
	tcpPinOps    = 20
	tcpPinDigest = 0x599aa6f6a8f2c562
)

var tcpApp = apps.MF()

// tcpInput names one generated input: the app builds it from (size,
// seed) alone.
type tcpInput struct {
	size int
	seed uint64
}

// tcpStream is one handset's seeded input stream.
type tcpStream struct {
	r      *rng.RNG
	recent []tcpInput
	i      int
}

func newStream(seed uint64, handset int) *tcpStream {
	return &tcpStream{r: rng.New(derive(seed, uint64(10+handset)))}
}

// next returns the stream's next input and whether it repeats a recent
// one: ops 2, 5 and 8 of every ten repeat.
func (s *tcpStream) next() (tcpInput, bool) {
	i := s.i
	s.i++
	if k := i % 10; k == 2 || k == 5 || k == 8 {
		return s.recent[s.r.Intn(len(s.recent))], true
	}
	sizes := tcpApp.ScenarioSizes
	in := tcpInput{size: sizes[s.r.Intn(len(sizes))], seed: s.r.Uint64()}
	s.recent = append(s.recent, in)
	if len(s.recent) > tcpRecent {
		s.recent = s.recent[1:]
	}
	return in, false
}

// call is what a tapped Remote saw of one offload.
type call struct {
	arg, res []byte
	servTime energy.Seconds
	ok       bool
}

// exchange digests a call — its argument and result payloads and the
// server's reported time — once the timed Invoke has returned.
type exchange struct {
	argHash, resHash uint64
	servTime         energy.Seconds
	ok               bool
}

func (c call) digest() exchange {
	return exchange{hashBytes(c.arg), hashBytes(c.res), c.servTime, c.ok}
}

// tapRemote wraps a core.Remote: it keeps the last call for the
// correctness check and, with a tracer, spans every Execute as a child
// of the op's Invoke span. It changes nothing it forwards.
type tapRemote struct {
	next       core.Remote
	tr         *tracer
	tid        int
	op, parent int64
	last       call
}

func (t *tapRemote) note(arg, res []byte, st energy.Seconds, err error) {
	t.last = call{arg, res, st, err == nil}
}

// Execute implements core.Remote.
func (t *tapRemote) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, error) {

	sp := t.tr.begin("core.Remote.Execute", t.op, t.parent, t.tid)
	res, st, queued, err := t.next.Execute(ctx, clientID, class, method, argBytes, reqTime, estEnd)
	t.tr.end(sp)
	t.note(argBytes, res, st, err)
	return res, st, queued, err
}

// CompiledBody implements core.Remote.
func (t *tapRemote) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	return t.next.CompiledBody(ctx, qname, level)
}

// The optional interfaces core.Client type-asserts on its Remote are
// forwarded exactly when the wrapped Remote has them, so wrapping
// never changes which client code path runs.

type tapMulti struct {
	*tapRemote
	mr core.MultiRemote
}

// Backends implements core.MultiRemote.
func (t *tapMulti) Backends() []string { return t.mr.Backends() }

// ExecuteOn implements core.MultiRemote.
func (t *tapMulti) ExecuteOn(ctx context.Context, backend, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, string, error) {

	sp := t.tr.begin("core.Remote.Execute", t.op, t.parent, t.tid)
	res, st, queued, by, err := t.mr.ExecuteOn(ctx, backend, clientID, class, method, argBytes, reqTime, estEnd)
	t.tr.end(sp)
	t.note(argBytes, res, st, err)
	return res, st, queued, by, err
}

type tapProber struct {
	*tapRemote
	core.BackendProber
}

type tapMultiProber struct {
	*tapMulti
	core.BackendProber
}

// tap wraps r, returning the wrapper as the Remote to hand the client.
func tap(r core.Remote, tr *tracer, tid int) (core.Remote, *tapRemote) {
	t := &tapRemote{next: r, tr: tr, tid: tid}
	mr, multi := r.(core.MultiRemote)
	pr, prober := r.(core.BackendProber)
	switch {
	case multi && prober:
		return &tapMultiProber{&tapMulti{t, mr}, pr}, t
	case multi:
		return &tapMulti{t, mr}, t
	case prober:
		return &tapProber{t, pr}, t
	}
	return t, t
}

// rpcCounter is a core.RPCMetrics collector for the traced half.
type rpcCounter struct {
	reqBytes, respBytes, failed atomic.Int64
}

func (c *rpcCounter) ConnOpened()     {}
func (c *rpcCounter) ConnClosed()     {}
func (c *rpcCounter) PanicRecovered() {}
func (c *rpcCounter) OversizedFrame() {}
func (c *rpcCounter) Reconnect()      {}
func (c *rpcCounter) DeadlineHit()    {}

func (c *rpcCounter) Request(op string, req, resp int, failed bool) {
	if op != "exec" {
		return
	}
	c.reqBytes.Add(int64(req))
	c.respBytes.Add(int64(resp))
	if failed {
		c.failed.Add(1)
	}
}

// handset is one closed-loop client on its own connection.
type handset struct {
	id     int
	c      *core.Client
	rs     *core.RemoteServer
	tap    *tapRemote
	stream *tcpStream
}

// tcpRecord is one op's outcome, kept for the post-run reference check.
type tcpRecord struct {
	in     tcpInput
	repeat bool
	ex     exchange
	ok     bool // the invoke succeeded and the app's checker accepted the result
}

// op runs one invocation: build the next input in the handset's heap,
// time the Invoke, check the result with the app's own checker.
func (h *handset) op(tr *tracer, opID int64) (tcpRecord, float64, error) {
	in, repeat := h.stream.next()
	h.c.NewExecution()
	h.c.ResetRun()
	input := tcpApp.MakeInput(in.size, in.seed)
	args, err := input.Args(h.c.VM)
	if err != nil {
		return tcpRecord{}, 0, err
	}
	h.tap.last = call{}
	sp := tr.begin("core.Client.Invoke", opID, 0, h.id)
	h.tap.op, h.tap.parent = opID, sp.id
	t0 := time.Now()
	res, err := h.c.Invoke(context.Background(), tcpApp.Class, tcpApp.Method, args)
	lat := time.Since(t0).Seconds() * 1e3
	tr.end(sp)
	ok := err == nil && h.tap.last.ok && input.Check(h.c.VM, res) == nil
	ex := h.tap.last.digest()
	h.tap.last = call{}
	return tcpRecord{in: in, repeat: repeat, ex: ex, ok: ok}, lat, nil
}

// tcpSetup is a prepared server and client program.
type tcpSetup struct {
	seed       uint64
	env        *experiments.Env
	serverProg *bytecode.Program
	sess       *core.SessionServer
	srv        *core.TCPServer
	addr       string
	served     chan error
	// compileMS, prepareMS and memoAdded as in citySetup.
	compileMS, prepareMS float64
	memoAdded            int
}

func newTCP(seed uint64, tr *tracer) (*tcpSetup, error) {
	s := &tcpSetup{seed: seed}
	memo0 := jit.MemoSize()
	if tr != nil {
		sp := tr.begin("lang.compile", 0, 0, 0)
		if _, err := tcpApp.FreshProgram(); err != nil {
			return nil, err
		}
		tr.end(sp)
		s.compileMS = tr.sumMS("lang.compile")
	}
	sp := tr.begin("experiments.Prepare", 0, 0, 0)
	env, err := experiments.Prepare(tcpApp, profileSeed)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	if tr != nil {
		s.prepareMS = tr.sumMS("experiments.Prepare")
	}
	s.env = env
	// The server compiles its own copy of the program, as mjserver does.
	if s.serverProg, err = tcpApp.FreshProgram(); err != nil {
		return nil, err
	}
	if err := s.serve(); err != nil {
		return nil, err
	}

	hs, err := s.dial("warm", nil, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	warm := make([]int, len(hs))
	for i := range warm {
		warm[i] = tcpWarmOps
	}
	_, err = s.drive(hs, nil, time.Time{}, warm)
	closeHandsets(hs)
	if err != nil {
		s.close()
		return nil, err
	}
	s.memoAdded = jit.MemoSize() - memo0
	return s, nil
}

// serve starts a fresh session server on a loopback listener.
func (s *tcpSetup) serve() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = l.Addr().String()
	s.sess = core.NewSessionServer(core.NewServer(s.serverProg), core.SessionConfig{Workers: tcpHandsets})
	s.srv = core.NewSessionTCPServer(s.sess)
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(l) }()
	return nil
}

// close stops the server and waits for its accept loop to return.
func (s *tcpSetup) close() {
	s.srv.Close()
	if err := <-s.served; err != nil && !errors.Is(err, core.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "offload-tcp: server stopped:", err)
	}
}

// dial connects the handsets for one phase. Each phase gets fresh
// client IDs (so fresh sessions) and restarts the same input streams.
func (s *tcpSetup) dial(phase string, tr *tracer, met core.RPCMetrics) ([]*handset, error) {
	var hs []*handset
	for i := 0; i < tcpHandsets; i++ {
		rs, err := core.DialServer(s.addr)
		if err != nil {
			closeHandsets(hs)
			return nil, err
		}
		if met != nil {
			rs.Metrics = met
		}
		remote, t := tap(rs, tr, i)
		c := core.New(core.ClientConfig{
			ID:       fmt.Sprintf("pda-%s-%d", phase, i),
			Prog:     s.env.Prog,
			Server:   remote,
			Strategy: core.StrategyR,
			Seed:     derive(s.seed, uint64(20+i)),
		})
		if err := c.Register(s.env.Target, s.env.Prof); err != nil {
			rs.Close()
			closeHandsets(hs)
			return nil, err
		}
		hs = append(hs, &handset{id: i, c: c, rs: rs, tap: t, stream: newStream(s.seed, i)})
	}
	return hs, nil
}

func closeHandsets(hs []*handset) {
	for _, h := range hs {
		h.rs.Close()
	}
}

// phase is one closed-loop run's outcome, per handset.
type phase struct {
	records [][]tcpRecord
	lat     [][]float64
	elapsed time.Duration
}

// fingerprint digests each handset's first 50 exchanges, in stream
// order: equal for every run of a seed.
func (p *phase) fingerprint() uint64 {
	h := fnv{fnvOffset}
	for _, recs := range p.records {
		for _, r := range recs[:min(len(recs), 50)] {
			h.u64(r.ex.argHash)
			h.u64(r.ex.resHash)
			h.f64(float64(r.ex.servTime))
		}
	}
	return h.sum
}

func (p *phase) ops() int {
	n := 0
	for _, r := range p.records {
		n += len(r)
	}
	return n
}

// drive runs every handset in its own goroutine: until the deadline
// when counts is nil, else exactly counts[i] ops on handset i.
func (s *tcpSetup) drive(hs []*handset, tr *tracer, until time.Time, counts []int) (*phase, error) {
	p := &phase{records: make([][]tcpRecord, len(hs)), lat: make([][]float64, len(hs))}
	errs := make([]error, len(hs))
	var opIDs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *handset) {
			defer wg.Done()
			for n := 0; ; n++ {
				if counts == nil && !time.Now().Before(until) || counts != nil && n >= counts[i] {
					return
				}
				rec, lat, err := h.op(tr, opIDs.Add(1))
				if err != nil {
					errs[i] = err
					return
				}
				p.records[i] = append(p.records[i], rec)
				p.lat[i] = append(p.lat[i], lat)
			}
		}(i, h)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p, errors.Join(errs...)
}

// verify checks every op against an in-process core.Server run on the
// same input: identical argument and result payloads, and the same
// server time — or, for a repeat, the session cache's dispatch-only
// time. Each distinct input is run once. It returns the number of
// failed ops.
func (s *tcpSetup) verify(p *phase) (int, error) {
	var distinct []tcpInput
	seen := map[tcpInput]bool{}
	for _, recs := range p.records {
		for _, r := range recs {
			if !seen[r.in] {
				seen[r.in] = true
				distinct = append(distinct, r.in)
			}
		}
	}
	ref, overhead, err := s.reference(distinct)
	if err != nil {
		return 0, err
	}
	index := map[tcpInput]int{}
	for k, in := range distinct {
		index[in] = k
	}
	failed := 0
	for _, recs := range p.records {
		for _, r := range recs {
			want := ref[index[r.in]]
			if r.repeat {
				want.servTime = overhead
			}
			if !r.ok || r.ex != want {
				failed++
			}
		}
	}
	return failed, nil
}

// checkPin runs the pinned inputs through the reference and tallies
// them: all fail unless their exchanges digest to tcpPinDigest.
func (s *tcpSetup) checkPin(rep *report) error {
	st := newStream(tcpPinSeed, 0)
	var ins []tcpInput
	for len(ins) < tcpPinOps {
		if in, repeat := st.next(); !repeat {
			ins = append(ins, in)
		}
	}
	ref, _, err := s.reference(ins)
	if err != nil {
		return err
	}
	h := fnv{fnvOffset}
	for _, ex := range ref {
		h.u64(ex.argHash)
		h.u64(ex.resHash)
		h.f64(float64(ex.servTime))
		if !ex.ok {
			h.u64(1)
		}
	}
	rep.attempted += tcpPinOps
	if h.sum != tcpPinDigest {
		rep.failed += tcpPinOps
		fmt.Fprintf(os.Stderr, "offload-tcp: pinned inputs digest %016x, want %016x\n", h.sum, uint64(tcpPinDigest))
	}
	return nil
}

// reference runs each input once through an in-process core.Server,
// split over tcpHandsets reference clients, and returns the exchanges
// and the server's per-request overhead (a session-cache hit's time).
func (s *tcpSetup) reference(distinct []tcpInput) ([]exchange, energy.Seconds, error) {
	type refClient struct {
		c   *core.Client
		tap *tapRemote
	}
	refs := make([]refClient, tcpHandsets)
	var overhead energy.Seconds
	for w := range refs {
		server := core.NewServer(s.env.Prog)
		overhead = server.RequestOverhead
		remote, t := tap(server, nil, w)
		c := core.New(core.ClientConfig{ID: fmt.Sprintf("ref-%d", w), Prog: s.env.Prog, Server: remote, Strategy: core.StrategyR})
		if err := c.Register(s.env.Target, s.env.Prof); err != nil {
			return nil, 0, err
		}
		refs[w] = refClient{c, t}
	}
	ref := make([]exchange, len(distinct))
	errs := make([]error, tcpHandsets)
	var wg sync.WaitGroup
	for w := range refs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, t := refs[w].c, refs[w].tap
			for k := w; k < len(distinct); k += tcpHandsets {
				c.NewExecution()
				c.ResetRun()
				args, err := tcpApp.MakeInput(distinct[k].size, distinct[k].seed).Args(c.VM)
				if err == nil {
					_, err = c.Invoke(context.Background(), tcpApp.Class, tcpApp.Method, args)
				}
				if err != nil {
					errs[w] = err
					return
				}
				ref[k] = t.last.digest()
			}
		}(w)
	}
	wg.Wait()
	return ref, overhead, errors.Join(errs...)
}

func runTCP(cfg config) (*report, error) {
	if cfg.trace {
		return traceTCP(cfg)
	}
	rep := newReport()
	s, setupS, err := setUp(setUps, func() (*tcpSetup, error) { return newTCP(cfg.seed, nil) },
		func(s *tcpSetup) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	hs, err := s.dial("run", nil, nil)
	if err != nil {
		return nil, err
	}
	defer closeHandsets(hs)
	runtime.GC()

	heap := startLiveHeap()
	p, err := s.drive(hs, nil, time.Now().Add(cfg.window()), nil)
	live := heap.mib()
	if err != nil {
		return nil, err
	}
	failed, err := s.verify(p)
	if err != nil {
		return nil, err
	}
	if err := s.checkPin(rep); err != nil {
		return nil, err
	}
	var lat []float64
	for _, l := range p.lat {
		lat = append(lat, l...)
	}
	ops := p.ops()
	rep.attempted += ops
	rep.failed += failed
	rep.values["live_heap_mib"] = live
	rep.values["setup_s"] = setupS
	rep.values["ops_per_s"] = float64(ops) / p.elapsed.Seconds()
	rep.values["op_p50_ms"] = quantile(lat, 0.5)
	rep.values["op_p90_ms"] = quantile(lat, 0.9)
	st := s.sess.Stats()
	fmt.Printf("offload-tcp: %d ops in %.2f s, %d failed; session served %d, cache hits %d, shed %d; first-ops digest %016x\n",
		ops, p.elapsed.Seconds(), failed, st.Served, st.CacheHits, st.Shed, p.fingerprint())
	return rep, nil
}

// traceTCP is the offload-tcp ledger: the handsets run untraced for
// half the window, then replay the same input streams for as many ops
// with spans around Invoke and Remote.Execute, an RPC metrics collector
// and a CPU profile. Each half has a session server of its own, started
// fresh, and the session counters of the two halves must agree.
func traceTCP(cfg config) (*report, error) {
	rep := newReport()
	spansPath, profPath, err := ledgerFiles("offload-tcp")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	s, err := newTCP(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.values["lang.compile_ms"] = s.compileMS
	rep.values["core.profile_ms"] = s.prepareMS - s.compileMS
	rep.values["jit.memo_entries"] = float64(s.memoAdded)
	runtime.GC()

	// Untraced half.
	s.close()
	if err := s.serve(); err != nil {
		return nil, err
	}
	hs, err := s.dial("untraced", nil, nil)
	if err != nil {
		return nil, err
	}
	a := readRT()
	pu, err := s.drive(hs, nil, time.Now().Add(cfg.window()/2), nil)
	b := readRT()
	closeHandsets(hs)
	if err != nil {
		return nil, err
	}
	stu := s.sess.Stats()
	ops := pu.ops()
	runtimeLedger(rep, a, b, ops)
	untraced := float64(ops) / pu.elapsed.Seconds()

	// Traced half: the same per-handset op counts.
	s.close()
	if err := s.serve(); err != nil {
		return nil, err
	}
	met := &rpcCounter{}
	hs, err = s.dial("traced", tr, met)
	if err != nil {
		return nil, err
	}
	defer closeHandsets(hs)
	counts := make([]int, len(hs))
	for i, r := range pu.records {
		counts[i] = len(r)
	}
	prof, err := startCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	pt, err := s.drive(hs, tr, time.Time{}, counts)
	if err != nil {
		return nil, err
	}
	if err := prof.stop(rep); err != nil {
		return nil, err
	}
	stt := s.sess.Stats()
	traced := float64(ops) / pt.elapsed.Seconds()

	for _, p := range []*phase{pu, pt} {
		failed, err := s.verify(p)
		if err != nil {
			return nil, err
		}
		rep.attempted += p.ops()
		rep.failed += failed
	}
	if err := s.checkPin(rep); err != nil {
		return nil, err
	}
	// The halves ran the same streams on fresh servers: their session
	// counters must agree.
	if stt.Served != stu.Served || stt.CacheHits != stu.CacheHits || stt.Shed != stu.Shed {
		rep.failed++
	}
	rep.values["net.rtt_ms_p50"] = quantile(tr.ms("core.Remote.Execute"), 0.5)
	rep.values["net.rtt_ms_p90"] = quantile(tr.ms("core.Remote.Execute"), 0.9)
	rep.values["core.client_self_ms_p50"] = quantile(tr.selfMS("core.Client.Invoke"), 0.5)
	rep.values["net.req_kib_per_op"] = float64(met.reqBytes.Load()) / 1024 / float64(ops)
	rep.values["net.resp_kib_per_op"] = float64(met.respBytes.Load()) / 1024 / float64(ops)
	rep.values["net.failed"] = float64(met.failed.Load())
	rep.values["session.hit_ratio"] = ratio(float64(stt.CacheHits), float64(stt.Served))
	rep.values["session.shed"] = float64(stt.Shed)
	rep.values["session.max_queue_depth"] = float64(stt.MaxQueueDepth)
	traceOverhead(rep, untraced, traced)
	fmt.Printf("offload-tcp ledger: %d ops untraced, then traced; profile %s\n", ops, profPath)
	return rep, tr.write(spansPath)
}
