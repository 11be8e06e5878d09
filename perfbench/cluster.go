package main

// cluster.go brings up one benchmark cluster: one OS process per replica
// (the benchmark's replica entry, GOMAXPROCS=1, durable state in its own
// directory), TCP between them, gossip at the default interval, and one
// connected client that has written every item once.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"securestore/internal/accessctl"
	"securestore/internal/client"
	"securestore/internal/cryptoutil"
	"securestore/internal/deploy"
	ssmetrics "securestore/internal/metrics"
	"securestore/internal/timestamp"
	"securestore/internal/transport"
)

const (
	clientID = "bench"
	// probeID is a second principal the settle prober reads as, so its
	// requests can be told apart from the measured client's.
	probeID = "probe"
	group   = "bench"
	// replicaGOMAXPROCS is the Go scheduler width of every replica.
	replicaGOMAXPROCS = 1
	// verifyCacheSize mirrors the verified-signature LRU capacity the
	// deployment builds for a config that leaves it unset.
	verifyCacheSize = 4096
	// prewriteSessions is the set-up's write concurrency; it is not part
	// of the measured load shape.
	prewriteSessions = 16
	opTimeout        = 5 * time.Second
)

// cluster is a running benchmark deployment.
type cluster struct {
	w       workloadSpec
	cfg     *deploy.Config
	dir     string
	dataDir string
	spawned *deploy.SpawnedCluster
	procs   map[string]*exec.Cmd // replica name -> process, for /proc and signals

	cl      *client.Client
	caller  *transport.TCPCaller
	counter *ssmetrics.Counters
	rec     *recorder
	values  *valueMaker
}

// startCluster spawns, connects and prewrites; the caller tears it down.
// A non-nil spans selects the traced replica entry and a span-recording
// caller.
func startCluster(ctx context.Context, bin, dir string, w workloadSpec, seed int64, spans *spanRecorder) (*cluster, error) {
	fragThreshold := 0
	if w.fragK > 0 {
		fragThreshold = 1 << 10
	}
	cfg, err := deploy.SynthesizeCluster("perfbench", 1, benchB, clientID, fragThreshold, w.fragK, w.extraReplicas)
	if err != nil {
		return nil, err
	}
	cfg.GossipIntervalMillis = 0 // the deployment default, 200 ms
	cfg.Clients = append(cfg.Clients, probeID)
	c := &cluster{w: w, cfg: cfg, dir: dir, dataDir: filepath.Join(dir, "data"), procs: make(map[string]*exec.Cmd)}
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	command := func(configPath, name string) *exec.Cmd {
		args := []string{"replica", "-config", configPath, "-name", name,
			"-data", c.dataDir, "-dump", filepath.Join(dir, name)}
		if spans != nil {
			args = append(args, "-trace")
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", replicaGOMAXPROCS))
		// A driver that dies takes its replicas with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		mu.Lock()
		c.procs[name] = cmd
		mu.Unlock()
		return cmd
	}
	if c.spawned, err = deploy.Spawn(cfg, dir, command); err != nil {
		return nil, err
	}
	if err := c.connect(ctx, spans); err != nil {
		c.teardown()
		return nil, err
	}
	c.rec = newRecorder()
	c.values = newValueMaker(seed, w.valueSize)
	if err := c.prewrite(ctx); err != nil {
		c.teardown()
		return nil, fmt.Errorf("prewrite: %w", err)
	}
	return c, nil
}

// newKeyring is the deployment's key ring with the default verify cache,
// as every deployed process builds it.
func newKeyring(cfg *deploy.Config) *cryptoutil.Keyring {
	ring := cfg.Ring()
	ring.EnableVerifyCache(verifyCacheSize)
	return ring
}

// connect builds the measured client as deploy.BuildClient does, except
// that the transport is passed in: one multiplexed TCPCaller, wrapped in
// the span recorder in the traced run.
func (c *cluster) connect(ctx context.Context, spans *spanRecorder) error {
	c.counter = &ssmetrics.Counters{}
	c.caller = transport.NewTCPCaller(clientID, c.cfg.Servers, c.counter)
	var caller transport.Caller = c.caller
	if spans != nil {
		caller = &tracingCaller{next: c.caller, rec: spans}
	}
	cc := client.Config{
		ID:      clientID,
		Key:     cryptoutil.DeterministicKeyPair(clientID, c.cfg.Seed),
		Ring:    newKeyring(c.cfg),
		Servers: c.cfg.ServerNames(),
		B:       c.cfg.B,
		Group:   group,
		Caller:  caller,
		Token:   c.cfg.Authority().Issue(clientID, group, accessctl.ReadWrite, c.counter),
		Metrics: c.counter,
		// The synthesized group is single-writer MRC, the client default.
		FragmentThreshold: c.cfg.FragmentThresholdBytes,
		FragmentK:         c.cfg.FragmentK,
	}
	cl, err := client.New(cc)
	if err != nil {
		return err
	}
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if err := cl.Connect(cctx); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	c.cl = cl
	return nil
}

// prewrite writes every item once so no measured read finds it missing.
func (c *cluster) prewrite(ctx context.Context) error {
	next := make(chan int, c.w.items)
	for i := 0; i < c.w.items; i++ {
		next <- i
	}
	close(next)
	errs := make(chan error, prewriteSessions)
	var wg sync.WaitGroup
	for s := 0; s < prewriteSessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			session := fmt.Sprintf("prewrite-%d", s)
			for i := range next {
				if _, err := c.write(ctx, session, i, uint64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// write writes the value of write id to item i and records the outcome.
func (c *cluster) write(ctx context.Context, session string, i int, id uint64) (timestamp.Stamp, error) {
	item := itemName(i)
	value := c.values.value(item, id)
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	stamp, err := c.cl.Write(octx, item, value)
	c.rec.write(session, item, stamp, value, err)
	return stamp, err
}

// read reads item i and records the outcome.
func (c *cluster) read(ctx context.Context, session string, i int) error {
	item := itemName(i)
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	value, stamp, err := c.cl.Read(octx, item)
	if err == nil {
		c.rec.read(session, item, stamp, value)
	}
	return err
}

// pids returns each replica's process ID by replica name.
func (c *cluster) pids() map[string]int {
	out := make(map[string]int, len(c.procs))
	for name, cmd := range c.procs {
		if cmd.Process != nil {
			out[name] = cmd.Process.Pid
		}
	}
	return out
}

// cpu returns each replica's CPU time so far.
func (c *cluster) cpu() (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	for name, pid := range c.pids() {
		d, err := procCPU(pid)
		if err != nil {
			return nil, fmt.Errorf("replica %s: %w", name, err)
		}
		out[name] = d
	}
	return out, nil
}

// peakRSS sums the replicas' peak resident sets, in bytes.
func (c *cluster) peakRSS() (int64, error) {
	var total int64
	for name, pid := range c.pids() {
		b, err := procPeakRSS(pid)
		if err != nil {
			return 0, fmt.Errorf("replica %s: %w", name, err)
		}
		total += b
	}
	return total, nil
}

// mark asks every replica for a mark dump and waits for all of them.
func (c *cluster) mark() (map[string]replicaDump, error) {
	for name, pid := range c.pids() {
		_ = os.Remove(filepath.Join(c.dir, name+".mark"))
		if err := syscall.Kill(pid, syscall.SIGUSR1); err != nil {
			return nil, fmt.Errorf("signal replica %s: %w", name, err)
		}
	}
	return c.readDumps(".mark", 10*time.Second)
}

// readDumps waits for every replica's dump with the given suffix.
func (c *cluster) readDumps(suffix string, timeout time.Duration) (map[string]replicaDump, error) {
	deadline := time.Now().Add(timeout)
	out := make(map[string]replicaDump)
	for name := range c.procs {
		path := filepath.Join(c.dir, name+suffix)
		for {
			d, err := loadDump(path)
			if err == nil {
				out[name] = d
				break
			}
			if !errors.Is(err, os.ErrNotExist) || time.Now().After(deadline) {
				return nil, fmt.Errorf("replica %s dump: %w", name, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return out, nil
}

// teardown stops the client and every replica (SIGTERM, which makes each
// write its final dump, then SIGKILL after a grace period).
func (c *cluster) teardown() error {
	if c.caller != nil {
		c.caller.Close()
	}
	if c.spawned == nil {
		return nil
	}
	return c.spawned.Teardown()
}
