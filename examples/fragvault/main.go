// Fragvault: confidentiality without encryption keys. Values are split
// with Rabin's information dispersal into one fragment per replica; any
// k = b+1 fragments reconstruct, fewer reveal nothing useful. The paper's
// related work (Section 3, refs [14, 15, 18]) positions this
// fragmentation–scattering as a technique the secure store "could benefit
// from" — here it runs on top of the same replicas, signed-write
// machinery and authorization as everything else.
//
//	go run ./examples/fragvault
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"securestore/internal/core"
	"securestore/internal/server"
	"securestore/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// n=5, b=1: fragments reconstruct from any k=2, and a single
	// compromised server (holding 1 fragment) learns nothing.
	cluster, err := core.NewCluster(core.ClusterConfig{N: 5, B: 1, Seed: "vault"})
	if err != nil {
		return err
	}
	defer cluster.Close()

	group := core.GroupSpec{Name: "vault", Consistency: wire.MRC}
	cluster.RegisterGroup(group)

	vault, err := cluster.NewFragStore(core.ClientSpec{ID: "owner", Group: "vault"}, group, 0)
	if err != nil {
		return err
	}

	will := []byte("LAST WILL: the house goes to the cat")
	if _, err := vault.Write(ctx, "will", will); err != nil {
		return err
	}
	fmt.Printf("dispersed %d bytes into 5 fragments (any %d reconstruct)\n", len(will), vault.K())

	// Write returns once k+b replicas acknowledge. The faults injected
	// below are two, one more than b tolerates, so first let the
	// dispersal's trailing sends reach every replica.
	deadline := time.Now().Add(5 * time.Second)
	for _, srv := range cluster.Servers {
		for srv.Head("vault", "will") == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("server %s never received its fragment", srv.ID())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// No single replica holds anything recognisable.
	for _, srv := range cluster.Servers {
		if w := srv.Head("vault", "will"); w != nil {
			if bytes.Contains(w.Value, []byte("LAST WILL")) || bytes.Contains(w.Value, []byte("cat")) {
				return fmt.Errorf("server %s holds recognisable plaintext", srv.ID())
			}
		}
	}
	fmt.Println("verified: no replica holds a recognisable piece of the document")

	// One replica crashes, another starts corrupting — the document is
	// still reconstructible from the remaining honest fragments.
	cluster.Servers[0].SetFault(server.Crash)
	cluster.Servers[1].SetFault(server.CorruptValue)
	fmt.Println("injected: one crashed and one corrupting replica")

	got, _, err := vault.Read(ctx, "will")
	if err != nil {
		return fmt.Errorf("read under faults: %w", err)
	}
	if !bytes.Equal(got, will) {
		return fmt.Errorf("reconstructed document differs")
	}
	fmt.Printf("reconstructed intact: %q\n", got)

	// Updates re-disperse under a fresh timestamp.
	cluster.HealAll()
	update := []byte("LAST WILL (v2): the house goes to the dog after all")
	if _, err := vault.Write(ctx, "will", update); err != nil {
		return err
	}
	got, _, err = vault.Read(ctx, "will")
	if err != nil {
		return err
	}
	fmt.Printf("after update: %q\n", got)
	return nil
}
