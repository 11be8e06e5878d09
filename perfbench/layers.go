package main

// layers.go turns a traced phase into the per-layer metrics. Every ratio
// names its base: per read and per write count successful operations of
// that kind in the traced phase, per op counts both.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	ssmetrics "securestore/internal/metrics"
)

// tracedInputs is everything a traced run measured.
type tracedInputs struct {
	w              workloadSpec
	plain, traced  usage
	client         ssmetrics.Snapshot // client counter delta over the traced phase
	encode, decode time.Duration      // fragment coding time over the phase
	marks, finals  map[string]replicaDump
	spans          []span
	settled        []float64
	unsettled      int
	diskBytes      int64
}

func loadDump(path string) (replicaDump, error) {
	var d replicaDump
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("parse %s: %w", path, err)
	}
	return d, nil
}

// rpcKinds are the request kinds the transport and server metrics split.
var rpcKinds = []string{"write", "meta", "value", "gossip.push", "gossip.pull"}

func layerMetrics(r *result, in tracedInputs) {
	ops := breakdown(in.spans)
	var reads, writes float64
	var readSvc, writeSvc []float64
	var readSelf, writeSelf time.Duration
	var readRPCs, writeRPCs, rpcErrs int
	for _, b := range ops {
		if b.read {
			reads++
			readSvc = append(readSvc, ms(b.service))
			readSelf += b.self
			readRPCs += b.rpcs
		} else {
			writes++
			writeSvc = append(writeSvc, ms(b.service))
			writeSelf += b.self
			writeRPCs += b.rpcs
		}
		rpcErrs += b.rpcErrs
	}
	total := reads + writes
	base := fmt.Sprintf("over %d reads, %d writes", int(reads), int(writes))

	// driver
	var late, wait []float64
	for _, s := range in.traced.res.samples {
		late = append(late, ms(s.lateness()))
		if s.executed {
			wait = append(wait, ms(s.queueWait()))
		}
	}
	r.add("driver.lateness_p99_ms", "ms", quantile(late, 0.99), fmt.Sprintf("of %d dispatches", len(late)))
	r.add("driver.queue_wait_p50_ms", "ms", median(wait), fmt.Sprintf("of %d ops", len(wait)))

	// client
	cs := in.client
	r.add("client.read_service_p50_ms", "ms", median(readSvc), base)
	r.add("client.write_service_p50_ms", "ms", median(writeSvc), base)
	r.add("client.self_us_per_read", "us", ratio(us(readSelf), reads), "call span minus union of its RPC spans")
	r.add("client.self_us_per_write", "us", ratio(us(writeSelf), writes), "call span minus union of its RPC spans")
	r.add("client.cpu_us_per_op", "us", ratio(us(in.traced.driverCPU), total), "driver process rusage")
	r.add("client.signatures_per_op", "count", ratio(float64(cs.Signatures), total), base)
	r.add("client.verifications_per_read", "count", ratio(float64(cs.Verifications), reads), base)
	r.add("client.read_retries_per_read", "count", ratio(float64(cs.Custom["read.retries"]), reads), base)

	// transport
	rpcDur := kindDurations(in.spans, ms)
	for _, d := range in.finals {
		for _, kind := range []string{"gossip.push", "gossip.pull"} {
			for _, v := range d.Spans["rpc."+kind] {
				rpcDur["rpc."+kind] = append(rpcDur["rpc."+kind], v/1000)
			}
		}
	}
	r.add("transport.rpcs_per_write", "count", ratio(float64(writeRPCs), writes), base)
	r.add("transport.rpcs_per_read", "count", ratio(float64(readRPCs), reads), base)
	for _, kind := range rpcKinds {
		d := rpcDur["rpc."+kind]
		r.add("transport.rpc_p50_ms."+kind, "ms", median(d), fmt.Sprintf("of %d calls", len(d)))
	}
	r.add("transport.rpc_errors_per_op", "count", ratio(float64(rpcErrs), total), base)
	rxRead := float64(cs.RxBytes["meta"] + cs.RxBytes["value"])
	r.add("transport.client_tx_bytes_per_write", "B", ratio(float64(cs.TxBytes["write"]), writes), base)
	r.add("transport.client_rx_bytes_per_read", "B", ratio(rxRead, reads), "meta and value replies; "+base)

	// fragment / fragstore
	mib := float64(in.w.valueSize) / (1 << 20)
	fragWrites, fragReads := float64(cs.Custom["write.fragmented"]), float64(cs.Custom["read.fragmented"])
	r.add("fragment.encode_us_per_mib", "us/MiB", ratio(us(in.encode), fragWrites*mib), fmt.Sprintf("over %d fragmented writes", int(fragWrites)))
	r.add("fragment.decode_us_per_mib", "us/MiB", ratio(us(in.decode), fragReads*mib), fmt.Sprintf("over %d fragmented reads", int(fragReads)))
	r.add("fragstore.rx_bytes_per_read_per_value_byte", "B/B", ratio(rxRead, reads*float64(in.w.valueSize)), base)
	r.add("fragstore.hedges_per_read", "count", ratio(float64(cs.FragReadHedges), reads), base)

	// server
	serve := make(map[string][]float64)
	var requests, clientRequests, busiest float64
	var delta ssmetrics.Snapshot
	var gcCPU, cpu, alloc, gossipTx, batchSigs float64
	for name, fin := range in.finals {
		for k, v := range fin.Spans {
			serve[k] = append(serve[k], v...)
		}
		for from, n := range fin.From {
			if from != probeID {
				requests += float64(n)
			}
		}
		fromClient := float64(fin.From[clientID])
		clientRequests += fromClient
		if fromClient > busiest {
			busiest = fromClient
		}
		mark := in.marks[name]
		d := fin.Counters.Delta(mark.Counters)
		delta.Verifications += d.Verifications
		delta.VCacheHits += d.VCacheHits
		delta.VCacheMisses += d.VCacheMisses
		delta.VerifyBatches += d.VerifyBatches
		batchSigs += float64(fin.VerifyBatchSigs - mark.VerifyBatchSigs)
		delta.StripeWaits += d.StripeWaits
		delta.WALBatches += d.WALBatches
		delta.WALBatchRecords += d.WALBatchRecords
		delta.WritevCalls += d.WritevCalls
		delta.WritevFrames += d.WritevFrames
		gossipTx += float64(d.TxBytes["gossip.push"] + d.TxBytes["gossip.pull"])
		gcCPU += fin.GCCPUSeconds - mark.GCCPUSeconds
		cpu += fin.CPUSeconds - mark.CPUSeconds
		alloc += float64(fin.AllocBytes - mark.AllocBytes)
	}
	for _, kind := range rpcKinds {
		d := serve["serve."+kind]
		r.add("server.serve_p50_us."+kind, "us", median(d), fmt.Sprintf("of %d requests, all replicas", len(d)))
	}
	sw := serve["serve.write"]
	r.add("server.serve_p99_us.write", "us", quantile(sw, 0.99), fmt.Sprintf("of %d requests", len(sw)))
	r.add("server.requests_per_op", "count", ratio(requests, total), "client and gossip requests; "+base)
	r.add("server.request_share_max", "ratio", ratio(busiest, clientRequests), fmt.Sprintf("busiest replica's share of %d client requests", int(clientRequests)))
	r.add("server.verifications_per_op", "count", ratio(float64(delta.Verifications), total), base)
	r.add("server.verify_cache_hit_frac", "ratio", ratio(float64(delta.VCacheHits), float64(delta.VCacheHits+delta.VCacheMisses)),
		fmt.Sprintf("%d hits, %d misses", delta.VCacheHits, delta.VCacheMisses))
	r.add("server.verify_batch_mean", "count", ratio(batchSigs, float64(delta.VerifyBatches)),
		fmt.Sprintf("over %d batches", delta.VerifyBatches))
	r.add("server.stripe_waits_per_op", "count", ratio(float64(delta.StripeWaits), total), base)

	// storage
	r.add("storage.wal_batches_per_write", "count", ratio(float64(delta.WALBatches), writes), base)
	r.add("storage.wal_records_per_batch", "count", ratio(float64(delta.WALBatchRecords), float64(delta.WALBatches)),
		fmt.Sprintf("over %d batches", delta.WALBatches))
	userBytes := float64(in.w.items) * float64(in.w.valueSize)
	r.add("storage.disk_bytes_per_user_byte", "B/B", ratio(float64(in.diskBytes), userBytes),
		fmt.Sprintf("%d bytes on disk, all replicas, for %d items of %d B", in.diskBytes, in.w.items, in.w.valueSize))

	// gossip
	r.add("gossip.tx_bytes_per_write", "B", ratio(gossipTx, writes), "replica tx bytes labelled gossip.*; "+base)
	r.add("gossip.settle_ms", "ms", median(in.settled),
		fmt.Sprintf("median of %d sampled writes (%d did not settle in 5 s)", len(in.settled), in.unsettled))

	// replica processes
	var replicaCPU time.Duration
	var lo, hi time.Duration
	first := true
	for _, d := range in.traced.replicaCPU {
		replicaCPU += d
		if first || d < lo {
			lo = d
		}
		if first || d > hi {
			hi = d
		}
		first = false
	}
	r.add("replica.cpu_us_per_op", "us", ratio(us(replicaCPU), total), fmt.Sprintf("%d replicas, /proc utime+stime", in.w.replicas()))
	r.add("replica.cpu_skew", "ratio", ratio(float64(hi), float64(lo)), fmt.Sprintf("max %v / min %v", hi, lo))
	r.add("replica.gc_cpu_frac", "ratio", ratio(gcCPU, cpu), "runtime/metrics estimate")
	r.add("replica.alloc_bytes_per_op", "B", ratio(alloc, total), base)
	r.add("replica.transport.writev_frames_per_call", "count", ratio(float64(delta.WritevFrames), float64(delta.WritevCalls)),
		fmt.Sprintf("over %d writev calls", delta.WritevCalls))

	// tracing overhead: traced minus untraced, same plan
	perOp := func(u usage) float64 { return ratio(us(u.totalCPU()), float64(u.completed())) }
	p50 := func(u usage) float64 {
		return median(append(u.res.latencies(true), u.res.latencies(false)...))
	}
	r.add("trace.overhead_cpu_us_per_op", "us", perOp(in.traced)-perOp(in.plain),
		fmt.Sprintf("traced %.1f - untraced %.1f", perOp(in.traced), perOp(in.plain)))
	r.add("trace.overhead_p50_ms", "ms", p50(in.traced)-p50(in.plain),
		fmt.Sprintf("traced %.4f - untraced %.4f", p50(in.traced), p50(in.plain)))
}
