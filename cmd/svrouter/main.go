// Command svrouter fronts a fleet of svserve replicas with a single
// protocol-compatible endpoint: clients dial the router exactly as they
// would a lone server, and the router places their streams on replicas by
// consistent hash with load-aware spill, enforces fleet-wide per-tenant
// quotas, hedges slow batch pulls against a second replica, and migrates
// live streams off dead replicas with a byte-identical resumed prefix.
//
// Usage:
//
//	svrouter -listen :7000 -replicas 127.0.0.1:7070,127.0.0.1:7071
//
// Every replica must serve byte-identical view files (same records, same
// build seed); the router keeps them identical from there by fanning every
// write out to all live replicas under a per-view write lock.
//
// SIGINT/SIGTERM triggers a graceful drain: new connections are refused,
// open ones are closed, and the router's statistics are printed on exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sampleview/internal/fleet"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7000", "address to listen on")
		replicas   = flag.String("replicas", "", "comma-separated replica addresses (required)")
		hedgeAfter = flag.Duration("hedge-after", 0, "hedge a batch pull against a second replica after this long (0 = never; a hedged pull costs a goroutine hand-off an unhedged one does not)")
		tenStreams = flag.Int("tenant-streams", 0, "fleet-wide open-stream cap per tenant (0 = fair share of fleet capacity)")
		tenRate    = flag.Float64("tenant-write-rate", 0, "per-tenant write admission: sustained entries per second (0 = unlimited)")
		tenBurst   = flag.Int("tenant-write-burst", 0, "per-tenant write admission: token-bucket burst capacity (0 = auto)")
		spill      = flag.Float64("spill-threshold", 0, "place streams past a replica loaded beyond this fraction of its cap (0 = default 0.8)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per replica on the placement ring (0 = default 64)")
		seed       = flag.Uint64("seed", 1, "seed for router-assigned stream seeds")
		maxBatch   = flag.Int("max-batch", 4096, "cap on records per batch response")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "svrouter: -replicas with at least one address is required")
		flag.Usage()
		os.Exit(2)
	}

	router, err := fleet.New(fleet.Config{
		Replicas:         addrs,
		HedgeAfter:       *hedgeAfter,
		SpillThreshold:   *spill,
		TenantStreams:    *tenStreams,
		TenantWriteRate:  *tenRate,
		TenantWriteBurst: *tenBurst,
		VNodes:           *vnodes,
		Seed:             *seed,
		MaxBatch:         *maxBatch,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svrouter: %v\n", err)
		os.Exit(2)
	}
	if err := router.Connect(); err != nil {
		fmt.Fprintf(os.Stderr, "svrouter: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fleet: %d replicas configured, %d live\n", len(addrs), router.ReplicasLive())
	for _, a := range addrs {
		fmt.Printf("  replica %s\n", a)
	}
	if *hedgeAfter > 0 {
		fmt.Printf("hedged reads: after %v\n", *hedgeAfter)
	}
	if *tenStreams > 0 {
		fmt.Printf("tenant quota: %d streams per tenant\n", *tenStreams)
	} else {
		fmt.Println("tenant quota: fair share of fleet capacity")
	}
	if *tenRate > 0 {
		fmt.Printf("tenant write admission: %.0f entries/s\n", *tenRate)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svrouter: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("routing on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("\n%v: draining...\n", s)
		start := time.Now()
		router.Shutdown()
		fmt.Printf("drained in %v\n", time.Since(start).Round(time.Millisecond))
	}()

	if err := router.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "svrouter: %v\n", err)
		os.Exit(1)
	}
	router.Shutdown() // idempotent; waits if the signal handler is mid-drain
	fmt.Println()
	router.Snapshot().Dump(os.Stdout)
}
