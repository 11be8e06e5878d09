package main

// runs.go sequences the two kinds of invocation.
//
// The measured run (--trace 0) sets up three clusters in turn, every
// tracing wrapper off. The first and the last serve fixed-rate windows
// (latency, CPU, RSS), so the windows sample the host at the start and the
// end of the run; the middle one serves the SLO-rate search. setup_s is
// the median of the three set-ups.
//
// The traced run (--trace 1) drives the same fixed-rate plan twice: once
// against an untraced cluster and client, once with every wrapper on. The
// per-layer metrics come from the traced phase; the difference between
// the two is the tracing overhead.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"securestore/internal/accessctl"
	"securestore/internal/timestamp"
	"securestore/internal/transport"
	"securestore/internal/wire"
)

const (
	// idleWindow and idleShare define a quiet cluster: replicas together
	// used under idleShare of one CPU over the last idleWindow, which is
	// longer than a gossip round. Phases start only on a quiet cluster,
	// so the prewrite's gossip does not land on the measurement.
	idleWindow = 300 * time.Millisecond
	idleShare  = 0.10
	// setupIdleMax and probeIdleMax bound the wait for a quiet cluster
	// after set-up and after each SLO probe.
	setupIdleMax = 15 * time.Second
	probeIdleMax = 5 * time.Second
	// fixedShare is the part of --seconds the fixed-rate windows take; the
	// SLO search gets the rest.
	fixedShare = 0.6
	// Each of the two fixed-rate clusters pools clusterWindows windows; it
	// runs up to maxWindows looking for that many on a quiet host, one
	// where the hypervisor stole under quietSteal of the machine's CPU.
	clusterWindows = 4
	maxWindows     = 8
	quietSteal     = 0.05
	// windowQuantile is the quantile over the kept windows that CPU per
	// operation and the latency medians report. A noisy neighbour only ever
	// adds latency and CPU, and it comes and goes within a run, so the
	// lower quartile tracks the store where the median would track the
	// host; a change that slows the store slows every window.
	windowQuantile = 0.25
	// The SLO search starts at searchStart times the fixed rate (which is
	// about a third of the SLO rate), steps by searchStep to bracket the
	// knee, then bisects; maxProbes bounds it, repeated probes included.
	searchStart = 3.0
	searchStep  = 1.5
	maxProbes   = 5
	// probeDrain is how many SLOs a probe waits past its last arrival for
	// outstanding operations; any still running by then missed the SLO.
	probeDrain = 4
	// maxLatenessP99 rejects a phase whose dispatcher fell behind its
	// schedule: it would have measured the generator, not the store.
	maxLatenessP99 = 50 * time.Millisecond
	// settleSamples is how many writes per traced phase gossip.settle_ms
	// follows to every replica.
	settleSamples = 20
)

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// waitIdle blocks until the cluster is quiet or max passes.
func (c *cluster) waitIdle(ctx context.Context, max time.Duration) error {
	deadline := time.Now().Add(max)
	prev, err := c.cpu()
	if err != nil {
		return err
	}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		sleep(ctx, idleWindow)
		cur, err := c.cpu()
		if err != nil {
			return err
		}
		var used time.Duration
		for name, d := range cur {
			used += d - prev[name]
		}
		if float64(used) < idleShare*float64(idleWindow) {
			return nil
		}
		prev = cur
	}
	return ctx.Err()
}

func sessionName(session int) string { return fmt.Sprintf("s%d", session) }

// plainOp runs one operation with no tracing.
func (c *cluster) plainOp(ctx context.Context, session int, o op) error {
	if o.read {
		return c.read(ctx, sessionName(session), o.item)
	}
	_, err := c.write(ctx, sessionName(session), o.item, o.id)
	return err
}

// setupCluster times one cluster's set-up: spawn, readiness, connect and
// prewrite.
func setupCluster(ctx context.Context, o options, dir, name string, spans *spanRecorder) (*cluster, time.Duration, error) {
	start := time.Now()
	c, err := startCluster(ctx, o.bin, filepath.Join(dir, name), o.w, o.seed, spans)
	if err != nil {
		return nil, 0, fmt.Errorf("set up %s cluster: %w", name, err)
	}
	return c, time.Since(start), nil
}

// usage is one phase's samples with the CPU it cost.
type usage struct {
	res        phaseResult
	driverCPU  time.Duration
	replicaCPU map[string]time.Duration
	// steal is the CPU time the hypervisor stole from the machine.
	steal time.Duration
}

// stealShare is the hypervisor's steal over the phase as a share of the
// machine's CPU time.
func (u usage) stealShare() float64 {
	return stealShare(u.steal, u.res.elapsed)
}

// stealShare is stolen CPU time as a share of the machine's CPU time over
// elapsed.
func stealShare(steal, elapsed time.Duration) float64 {
	return ratio(steal.Seconds(), elapsed.Seconds()*float64(runtime.NumCPU()))
}

// pool merges windows of one plan into one usage.
func pool(windows []usage) usage {
	out := usage{replicaCPU: make(map[string]time.Duration)}
	for _, u := range windows {
		out.res.samples = append(out.res.samples, u.res.samples...)
		out.res.elapsed += u.res.elapsed
		out.driverCPU += u.driverCPU
		for name, d := range u.replicaCPU {
			out.replicaCPU[name] += d
		}
		out.steal += u.steal
	}
	return out
}

// measureWindows runs fixed-rate windows of d each on c, a fresh plan
// each (phases from firstPhase on), until clusterWindows of them ran on a
// quiet host or maxWindows ran. It returns every window run and the
// indexes, in run order, of the clusterWindows with the least steal. On a
// small virtual machine latency follows the hypervisor's steal more than
// anything the store does; pooling the quiet windows keeps a noisy
// neighbour out of the comparison.
func measureWindows(ctx context.Context, c *cluster, w workloadSpec, seed int64, firstPhase int, d time.Duration) (all []usage, keep []int, err error) {
	quiet := 0
	for len(all) < maxWindows && quiet < clusterWindows {
		u, err := measurePhase(ctx, c, w.makePlan(seed, firstPhase+len(all), w.fixedRate, d), c.plainOp)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, u)
		if u.stealShare() < quietSteal {
			quiet++
		}
	}
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return all[order[a]].stealShare() < all[order[b]].stealShare() })
	keep = order[:clusterWindows]
	sort.Ints(keep)
	return all, keep, nil
}

func (u usage) completed() int { return len(u.res.samples) - u.res.failures() }

func (u usage) totalCPU() time.Duration {
	t := u.driverCPU
	for _, d := range u.replicaCPU {
		t += d
	}
	return t
}

// measurePhase runs p against c and accounts driver, replica and host CPU.
func measurePhase(ctx context.Context, c *cluster, p plan, do opFunc) (usage, error) {
	before, err := c.cpu()
	if err != nil {
		return usage{}, err
	}
	steal, err := hostSteal()
	if err != nil {
		return usage{}, err
	}
	self := selfCPU()
	res := runOpenLoop(ctx, p, sessions(), 0, do)
	u := usage{res: res, driverCPU: selfCPU() - self, replicaCPU: make(map[string]time.Duration)}
	after, err := c.cpu()
	if err != nil {
		return usage{}, err
	}
	stealAfter, err := hostSteal()
	if err != nil {
		return usage{}, err
	}
	u.steal = stealAfter - steal
	for name, d := range after {
		u.replicaCPU[name] = d - before[name]
	}
	return u, ctx.Err()
}

// checkLateness rejects a phase whose generator fell behind its schedule.
func checkLateness(res phaseResult) error {
	late := make([]float64, len(res.samples))
	for i, s := range res.samples {
		late[i] = ms(s.lateness())
	}
	if p99 := quantile(late, 0.99); p99 > ms(maxLatenessP99) {
		return fmt.Errorf("generator fell behind its schedule: dispatch lateness p99 %.2f ms > %.0f ms",
			p99, ms(maxLatenessP99))
	}
	return nil
}

// latencyNotes prints the latency of one operation kind over the kept
// windows: the median (the windowQuantile over windows of each window's
// p50) and the pooled tail. Both are printed, not gated: on a 2-vCPU
// virtual machine a hypervisor steal episode lasts minutes, longer than a
// run, and raises every latency of the runs it covers by half, while CPU
// time per operation does not count stolen time and stays put.
func latencyNotes(r *result, windows []usage, read bool) {
	kind, plural := "write", "writes"
	if read {
		kind, plural = "read", "reads"
	}
	var p50s, lat []float64
	for _, u := range windows {
		l := u.res.latencies(read)
		if len(l) > 0 {
			p50s = append(p50s, median(l))
		}
		lat = append(lat, l...)
	}
	q := tailQuantile(len(lat))
	r.notes = append(r.notes,
		fmt.Sprintf("%s_p50_ms %.4f ms: lower quartile over %d windows of p50; %d %s, not gated",
			kind, quantile(p50s, windowQuantile), len(p50s), len(lat), plural),
		fmt.Sprintf("%s_p99_ms %.4f ms: p%.1f (>=10 beyond) of %d %s, not gated",
			kind, quantile(lat, q), 100*q, len(lat), plural))
}

// generatorNotes reports how closely the generator kept its schedule.
func generatorNotes(res phaseResult) string {
	var late, wait []float64
	for _, s := range res.samples {
		late = append(late, ms(s.lateness()))
		if s.executed {
			wait = append(wait, ms(s.queueWait()))
		}
	}
	return fmt.Sprintf("generator: dispatch lateness p50 %.3f ms p99 %.3f ms, queue wait p50 %.3f ms p99 %.3f ms over %d ops",
		median(late), quantile(late, 0.99), median(wait), quantile(wait, 0.99), len(res.samples))
}

// onCluster sets up a cluster and, when fn is non-nil, waits for it to go
// quiet and runs fn on it. It always tears the cluster down and adds the
// cluster's checker violations to r. fn may tear down early itself.
func onCluster(ctx context.Context, o options, dir, name string, spans *spanRecorder, r *result, fn func(c *cluster) error) (time.Duration, error) {
	c, setup, err := setupCluster(ctx, o, dir, name, spans)
	if err != nil {
		return 0, err
	}
	if fn != nil {
		if err = c.waitIdle(ctx, setupIdleMax); err == nil {
			err = fn(c)
		}
	}
	r.violations = append(r.violations, c.rec.violations()...)
	if terr := c.teardown(); err == nil {
		err = terr
	}
	return setup, err
}

func measuredRun(ctx context.Context, o options, dir string) (*result, error) {
	w := o.w
	r := &result{}
	window := time.Duration(float64(o.seconds) * fixedShare / (2 * clusterWindows))
	var setups, rss []float64
	var all, quiet []usage
	var steal []string
	fixedOn := func(firstPhase int) func(c *cluster) error {
		return func(c *cluster) error {
			ws, keep, err := measureWindows(ctx, c, w, o.seed, firstPhase, window)
			if err != nil {
				return err
			}
			b, err := c.peakRSS()
			if err != nil {
				return err
			}
			rss = append(rss, float64(b)/(1<<20))
			all = append(all, ws...)
			for _, k := range keep {
				quiet = append(quiet, ws[k])
			}
			steal = append(steal, stealNote(ws, keep))
			return nil
		}
	}
	var probes []probeOutcome
	var sloNote string
	search := func(c *cluster) error {
		probeDur := (o.seconds - 2*clusterWindows*window) / maxProbes
		phase := 2 * maxWindows
		best, made, err := findSLORate(ctx, searchStart*w.fixedRate, searchStep, maxProbes, func(ctx context.Context, rate float64) (probeOutcome, error) {
			phase++
			steal, err := hostSteal()
			if err != nil {
				return probeOutcome{}, err
			}
			res := runOpenLoop(ctx, w.makePlan(o.seed, phase, rate, probeDur), sessions(), probeDrain*w.slo, c.plainOp)
			stealAfter, err := hostSteal()
			if err != nil {
				return probeOutcome{}, err
			}
			out := judgeProbe(rate, res, w.slo)
			out.steal = stealShare(stealAfter-steal, res.elapsed)
			// The next probe starts on a quiet cluster, not on this one's
			// gossip backlog.
			return out, c.waitIdle(ctx, probeIdleMax)
		})
		probes = made
		switch {
		case errors.Is(err, errNoPass):
			// A host that stalls through every probe leaves the rate
			// unmeasured; it gates nothing, so the run goes on.
			sloNote = fmt.Sprintf("slo_rate_ops_s not measured: %v; not gated", err)
		case err != nil:
			return fmt.Errorf("slo search: %w", err)
		default:
			sloNote = fmt.Sprintf("slo_rate_ops_s %.4f ops/s: highest passing probe: %s; SLO tail <= %v, achieved >= %.2f x offered, not gated",
				best.offered, best, w.slo, minAchievedShare)
		}
		return nil
	}
	for i, step := range []func(c *cluster) error{fixedOn(1), search, fixedOn(1 + maxWindows)} {
		setup, err := onCluster(ctx, o, dir, fmt.Sprintf("cluster%d", i), nil, r, step)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}

	u, everything := pool(quiet), pool(all)
	if err := checkLateness(u.res); err != nil {
		return nil, err
	}
	r.attempted, r.failed = len(everything.res.samples), everything.res.failures()
	endToEndMetrics(r, setups, quiet, median(rss))
	r.notes = append(r.notes, sloNote,
		fmt.Sprintf("failed_frac %.6f: %d of %d ops failed or timed out, not gated",
			ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted),
		fmt.Sprintf("workload %s seed %d: fixed rate %.0f ops/s, %d sessions, %d windows of %v kept of %d run",
			w.name, o.seed, w.fixedRate, sessions(), len(quiet), window, len(all)),
		generatorNotes(u.res))
	r.notes = append(r.notes, steal...)
	for _, p := range probes {
		r.notes = append(r.notes, "slo probe "+p.String())
	}
	return r, nil
}

// stealNote lists every window's steal and marks the kept ones.
func stealNote(all []usage, keep []int) string {
	kept := make(map[int]bool, len(keep))
	for _, k := range keep {
		kept[k] = true
	}
	var b strings.Builder
	b.WriteString("hypervisor steal per window (* kept):")
	for i, u := range all {
		mark := ""
		if kept[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, " %.1f%%%s", 100*u.stealShare(), mark)
	}
	return b.String()
}

// endToEndMetrics adds the measured run's gated metrics: set-up time, and
// over the kept fixed-rate windows CPU per operation (windowQuantile over
// windows) and replica peak RSS. The latencies go to note lines.
func endToEndMetrics(r *result, setups []float64, windows []usage, rssMiB float64) {
	r.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups %v", len(setups), setups))
	latencyNotes(r, windows, false)
	latencyNotes(r, windows, true)
	var perOp []float64
	for _, u := range windows {
		perOp = append(perOp, ratio(us(u.totalCPU()), float64(u.completed())))
	}
	u := pool(windows)
	r.add("cpu_us_per_op", "us", quantile(perOp, windowQuantile), fmt.Sprintf("lower quartile over %d windows; driver %v + replicas %v over %d ops in all",
		len(perOp), u.driverCPU, u.totalCPU()-u.driverCPU, u.completed()))
	r.add("rss_mb", "MiB", rssMiB, "sum of replica peak RSS, median over the fixed-rate clusters")
}

// settleProber measures gossip.settle_ms: for sampled writes, the time
// from the write's ack until every replica answers meta with (at least)
// the write's stamp. It reads as its own principal so its requests are
// not counted as the measured client's.
type settleProber struct {
	ctx     context.Context
	servers []string
	caller  *transport.TCPCaller
	token   *accessctl.Token
	sampled map[uint64]bool

	wg        sync.WaitGroup
	mu        sync.Mutex
	settled   []float64
	unsettled int
}

func newSettleProber(ctx context.Context, c *cluster, p plan) *settleProber {
	var writes []uint64
	for _, o := range p.ops {
		if !o.read {
			writes = append(writes, o.id)
		}
	}
	every := len(writes)/settleSamples + 1
	s := &settleProber{
		ctx:     ctx,
		servers: c.cfg.ServerNames(),
		caller:  transport.NewTCPCaller(probeID, c.cfg.Servers, nil),
		token:   c.cfg.Authority().Issue(probeID, group, accessctl.ReadOnly, nil),
		sampled: make(map[uint64]bool),
	}
	for i := 0; i < len(writes); i += every {
		s.sampled[writes[i]] = true
	}
	return s
}

// observe starts following a write if it is sampled.
func (s *settleProber) observe(o op, stamp timestamp.Stamp, acked time.Time) {
	if !s.sampled[o.id] {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.follow(itemName(o.item), stamp, acked)
	}()
}

func (s *settleProber) follow(item string, stamp timestamp.Stamp, acked time.Time) {
	pending := append([]string(nil), s.servers...)
	deadline := acked.Add(5 * time.Second)
	for len(pending) > 0 && time.Now().Before(deadline) && s.ctx.Err() == nil {
		var still []string
		for _, srv := range pending {
			resp, err := s.caller.Call(s.ctx, srv, wire.MetaReq{Client: probeID, Group: group, Item: item, Token: s.token})
			if mr, ok := resp.(wire.MetaResp); err == nil && ok && mr.Has && !mr.Stamp.Less(stamp) {
				continue
			}
			still = append(still, srv)
		}
		pending = still
		if len(pending) > 0 {
			sleep(s.ctx, 10*time.Millisecond)
		}
	}
	elapsed := time.Since(acked)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(pending) > 0 {
		s.unsettled++
		return
	}
	s.settled = append(s.settled, ms(elapsed))
}

// wait stops after every followed write settled or gave up.
func (s *settleProber) wait() {
	s.wg.Wait()
	s.caller.Close()
}

// tracedOp runs one operation inside a client span; the caller wrapper
// files the operation's RPC spans under it.
func (c *cluster) tracedOp(spans *spanRecorder, settle *settleProber) opFunc {
	return func(ctx context.Context, session int, o op) error {
		ctx, id := spans.withOp(ctx)
		start := spans.now()
		if o.read {
			err := c.read(ctx, sessionName(session), o.item)
			spans.endOp(id, "client.read", start, spans.now(), err)
			return err
		}
		stamp, err := c.write(ctx, sessionName(session), o.item, o.id)
		spans.endOp(id, "client.write", start, spans.now(), err)
		if err == nil {
			settle.observe(o, stamp, time.Now())
		}
		return err
	}
}

func tracedRun(ctx context.Context, o options, dir string) (*result, error) {
	w := o.w
	r := &result{}
	p := w.makePlan(o.seed, 1, w.fixedRate, o.seconds/2)
	in := tracedInputs{w: w}

	// Untraced reference phase, same plan.
	_, err := onCluster(ctx, o, dir, "untraced", nil, r, func(c *cluster) error {
		var err error
		if in.plain, err = measurePhase(ctx, c, p, c.plainOp); err != nil {
			return err
		}
		return checkLateness(in.plain.res)
	})
	if err != nil {
		return nil, err
	}

	spans := newSpanRecorder()
	_, err = onCluster(ctx, o, dir, "traced", spans, r, func(c *cluster) error {
		var err error
		if in.marks, err = c.mark(); err != nil {
			return err
		}
		spans.take() // set-up spans
		clientBefore := c.counter.Snapshot()
		enc, dec := c.counter.FragEncodeHist(), c.counter.FragDecodeHist()
		encBefore, decBefore := enc.Snapshot().Sum, dec.Snapshot().Sum
		settle := newSettleProber(ctx, c, p)
		in.traced, err = measurePhase(ctx, c, p, c.tracedOp(spans, settle))
		settle.wait()
		if err != nil {
			return err
		}
		if err := checkLateness(in.traced.res); err != nil {
			return err
		}
		in.client = c.counter.Snapshot().Delta(clientBefore)
		in.encode, in.decode = enc.Snapshot().Sum-encBefore, dec.Snapshot().Sum-decBefore
		in.settled, in.unsettled = settle.settled, settle.unsettled
		if in.diskBytes, err = dirBytes(c.dataDir); err != nil {
			return err
		}
		if err := c.teardown(); err != nil {
			return err
		}
		in.finals, err = c.readDumps(".final", 5*time.Second)
		return err
	})
	if err != nil {
		return nil, err
	}
	in.spans = spans.take()
	spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-s%d.jsonl", w.name, o.seed))
	if err := writeSpans(spanFile, in.spans); err != nil {
		return nil, err
	}
	r.attempted, r.failed = len(in.traced.res.samples), in.traced.res.failures()
	layerMetrics(r, in)
	r.notes = append(r.notes,
		fmt.Sprintf("workload %s seed %d: traced and untraced phases of %.0f ops/s for %v, %d sessions",
			w.name, o.seed, w.fixedRate, o.seconds/2, sessions()),
		fmt.Sprintf("spans: %d written to %s", len(in.spans), spanFile),
		generatorNotes(in.traced.res),
		fmt.Sprintf("hypervisor steal during the traced phase %.1f%% of the machine's CPU", 100*in.traced.stealShare()))
	return r, nil
}
