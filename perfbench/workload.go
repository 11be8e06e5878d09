package main

// workload.go defines the benchmark's named workloads and turns a seed
// into the operations a run sends: arrival times, read/write mix, item
// choice and the bytes of every written value. The program under test
// only ever sees the generated operations.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// workloadSpec is one named workload.
type workloadSpec struct {
	name      string
	valueSize int
	readFrac  float64
	items     int
	// zipfS > 1 picks items zipf-distributed with that exponent; 0 picks
	// them uniformly.
	zipfS float64
	// fragK > 0 erasure-codes every value with that reconstruction
	// threshold over n = 3b+1+extraReplicas servers.
	fragK         int
	extraReplicas int
	// fixedRate is the offered load (ops/s) of the latency, CPU and
	// traced phases: about a third of the workload's SLO rate.
	fixedRate float64
	// slo is the latency limit on the tail percentile that the SLO-rate
	// search holds the cluster to.
	slo time.Duration
}

// replicas returns the replica count of the workload's cluster.
func (w workloadSpec) replicas() int { return 3*benchB + 1 + w.extraReplicas }

// benchB is the fault bound every workload's cluster tolerates.
const benchB = 1

// workloads are the benchmark's named workloads; BENCHMARK.json and
// README.md give the reason for each.
var workloads = []workloadSpec{
	{
		// The write path end to end; read, fragment and fragstore layers
		// idle.
		name:      "small-write",
		valueSize: 128, readFrac: 0.10, items: 4096,
		fixedRate: 400, slo: 100 * time.Millisecond,
	},
	{
		// The two-phase read on a hot set that fits every verify cache;
		// little WAL or gossip work.
		name:      "small-read",
		valueSize: 128, readFrac: 0.95, items: 4096, zipfS: 1.2,
		fixedRate: 1500, slo: 100 * time.Millisecond,
	},
	{
		// Erasure-coded large values: bytes dominate, signatures per byte
		// are negligible.
		name:      "large-frag",
		valueSize: 256 << 10, readFrac: 0.50, items: 32, fragK: 3, extraReplicas: 1,
		fixedRate: 80, slo: 500 * time.Millisecond,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated operation. id is unique within a cluster's life:
// the phase number in the high bits, the position in the phase below.
type op struct {
	read bool
	item int
	id   uint64
}

// plan is a phase's operations and their intended send offsets.
type plan struct {
	ops      []op
	arrivals []time.Duration
}

// makePlan draws a phase of Poisson arrivals at rate ops/s lasting d. The
// phase number salts the seed so phases of one run differ, while the same
// (seed, phase) always yields the same plan.
func (w workloadSpec) makePlan(seed int64, phase int, rate float64, d time.Duration) plan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
	var zipf *rand.Zipf
	if w.zipfS > 1 {
		zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.items-1))
	}
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	p := plan{ops: make([]op, n), arrivals: make([]time.Duration, n)}
	var t float64
	for i := range p.ops {
		t += rng.ExpFloat64() / rate
		p.arrivals[i] = time.Duration(t * float64(time.Second))
		o := op{read: rng.Float64() < w.readFrac, id: uint64(phase)<<32 | uint64(i)}
		if zipf != nil {
			o.item = int(zipf.Uint64())
		} else {
			o.item = rng.Intn(w.items)
		}
		p.ops[i] = o
	}
	return p
}

// itemName is the store key of item index i.
func itemName(i int) string { return fmt.Sprintf("k%05d", i) }

// valueMaker builds written values: a header naming the item and the write
// ("<item>#<id>|") over seeded filler, so a read can be checked to return
// bytes written to that very item, and the checker can match each read to
// one write by digest.
type valueMaker struct {
	filler []byte
}

func newValueMaker(seed int64, size int) *valueMaker {
	rng := rand.New(rand.NewSource(seed))
	filler := make([]byte, size)
	for i := range filler {
		filler[i] = byte('a' + rng.Intn(26))
	}
	return &valueMaker{filler: filler}
}

func (m *valueMaker) value(item string, id uint64) []byte {
	v := append([]byte(nil), m.filler...)
	header := item + "#" + strconv.FormatUint(id, 10) + "|"
	copy(v, header)
	return v
}

// namesItem reports whether value carries the header of a write to item.
func namesItem(value []byte, item string) bool {
	return bytes.HasPrefix(value, []byte(item+"#"))
}
