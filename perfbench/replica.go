package main

// replica.go is the benchmark's replica entry (`perfbench replica`). It
// serves exactly what deploy.ServeReplica serves — BuildServer with a
// state directory, NewTCPServer with the replica's counters, the gossip
// engine — and adds only what the benchmark reads from outside:
//
//   - on SIGUSR1 it writes a mark dump (counters, runtime/metrics) so the
//     driver can take deltas over a measured phase;
//   - on SIGTERM it shuts down like ServeReplica and writes a final dump;
//   - with -trace, a wrapper around ServeRequest and around the gossip
//     engine's transport.Caller records spans, aggregated by request kind
//     into the dumps. Untraced replicas run no wrapper.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"securestore/internal/deploy"
	"securestore/internal/gossip"
	ssmetrics "securestore/internal/metrics"
	"securestore/internal/transport"
	"securestore/internal/wire"
)

// replicaDump is what a replica reports about itself.
type replicaDump struct {
	Name     string             `json:"name"`
	Counters ssmetrics.Snapshot `json:"counters"`
	// GCCPUSeconds and CPUSeconds are runtime/metrics' estimates of the
	// GC's and the whole process's CPU time since start.
	GCCPUSeconds float64 `json:"gcCpuSeconds"`
	CPUSeconds   float64 `json:"cpuSeconds"`
	// AllocBytes is the cumulative heap allocation since start.
	AllocBytes uint64 `json:"allocBytes"`
	// VerifyBatchSigs sums the sizes of the admission verify batches
	// Counters.VerifyBatches counts.
	VerifyBatchSigs int64 `json:"verifyBatchSigs"`
	// Spans holds, for a traced replica, span durations in microseconds
	// by span name ("serve.<kind>", "rpc.<kind>") since the last mark,
	// and From the number of requests served per sender.
	Spans map[string][]float64 `json:"spans,omitempty"`
	From  map[string]int       `json:"from,omitempty"`
}

// runtimeSample reads the process-wide runtime metrics a dump carries.
func runtimeSample() (gcCPU, totalCPU float64, alloc uint64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		alloc = samples[2].Value.Uint64()
	}
	return gcCPU, totalCPU, alloc
}

func writeDump(path, name string, counters *ssmetrics.Counters, rec *spanRecorder) error {
	d := replicaDump{Name: name, Counters: counters.Snapshot(), VerifyBatchSigs: counters.VerifyBatchSizes().Sum()}
	d.GCCPUSeconds, d.CPUSeconds, d.AllocBytes = runtimeSample()
	if rec != nil {
		spans := rec.take()
		d.Spans = kindDurations(spans, us)
		d.From = make(map[string]int)
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "serve.") {
				d.From[s.Peer]++
			}
		}
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func runReplica(args []string) error {
	fs := flag.NewFlagSet("perfbench replica", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "deployment config path")
		name       = fs.String("name", "", "replica name")
		dataDir    = fs.String("data", "", "durable state directory")
		dump       = fs.String("dump", "", "dump path prefix (writes <prefix>.mark and <prefix>.final)")
		traced     = fs.Bool("trace", false, "record spans around ServeRequest and gossip RPCs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" || *name == "" || *dataDir == "" || *dump == "" {
		return fmt.Errorf("-config, -name, -data and -dump are required")
	}
	cfg, err := deploy.Load(*configPath)
	if err != nil {
		return err
	}
	addr, ok := cfg.Servers[*name]
	if !ok {
		return fmt.Errorf("server %q not in config", *name)
	}
	// Subscribe before serving so a signal never hits the default action.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1)

	wire.RegisterGob()
	obs := deploy.NewObs()
	srv, engine, err := deploy.BuildServer(cfg, *name, *dataDir, obs)
	if err != nil {
		return err
	}
	var handler transport.Handler = srv
	var rec *spanRecorder
	if *traced {
		// The engine BuildServer made is never started; this one differs
		// only in the wrapped caller.
		rec = newSpanRecorder()
		handler = &tracingHandler{next: srv, rec: rec}
		caller := transport.NewTCPCaller(*name, cfg.Servers, obs.Counters, transport.WithLatencies(obs.Latencies))
		interval := time.Duration(cfg.GossipIntervalMillis) * time.Millisecond
		if interval <= 0 {
			interval = 200 * time.Millisecond
		}
		var peers []string // sorted, as ServerNames returns them
		for _, peer := range cfg.ServerNames() {
			if peer != *name {
				peers = append(peers, peer)
			}
		}
		engine = gossip.New(srv, &tracingCaller{next: caller, rec: rec}, peers,
			gossip.WithInterval(interval), gossip.WithTracer(obs.Tracer))
	}
	tcp := transport.NewTCPServer(handler, transport.WithServerCounters(obs.Counters))
	if _, err := tcp.Serve(addr); err != nil {
		return err
	}
	engine.Start()
	for sig := range sigs {
		if sig != syscall.SIGUSR1 {
			break
		}
		if err := writeDump(*dump+".mark", *name, obs.Counters, rec); err != nil {
			return err
		}
	}
	engine.Stop()
	tcp.Close()
	return writeDump(*dump+".final", *name, obs.Counters, rec)
}
