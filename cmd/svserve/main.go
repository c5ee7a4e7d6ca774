// Command svserve serves materialized sample views over TCP: clients open
// online sample streams, pull batches whose every prefix is a uniform
// without-replacement sample, and run count estimates, all multiplexed over
// concurrent sessions with admission control.
//
// Usage:
//
//	svserve -listen :7070 -view sale=sale.view -view day2=day2.view
//	svserve -listen :7070 -catalog /data/svcat
//
// With -catalog the server hosts a sharded view catalog: clients list and
// open its views by name, and the catalog's background maintenance
// (compaction past -compact-threshold pending appends, checksum scrubs
// every -scrub-every of simulated time) runs in the idle gaps between
// request bursts.
//
// SIGINT/SIGTERM triggers a graceful shutdown: in-flight batches finish
// writing before their connections close, and the final server statistics
// are printed on exit.
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

	"sampleview"
	"sampleview/internal/server"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7070", "address to listen on")
		maxStreams  = flag.Int("max-streams", 256, "server-wide cap on open streams")
		connStreams = flag.Int("conn-streams", 16, "per-connection cap on open streams")
		tenStreams  = flag.Int("tenant-streams", 0, "per-tenant cap on open streams, summed across connections (0 = -max-streams)")
		replicaID   = flag.String("replica-id", "", "name this server in a fleet (reported via replica-info)")
		idle        = flag.Duration("idle", 0, "reap streams idle this long on the simulated disk clock (0 = never)")
		reqTimeout  = flag.Duration("req-timeout", 0, "wall-clock deadline per in-flight request (0 = none)")
		profile     = flag.String("fault-profile", "", "inject storage faults on every served view: "+strings.Join(sampleview.FaultProfiles(), ", "))
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for the injected fault schedule")
		backlog     = flag.Int("write-backlog", 0, "reject appends once a view's memview holds this many entries (0 = default 65536)")
		catalogDir  = flag.String("catalog", "", "host the sharded view catalog rooted at this directory")
		compactAt   = flag.Int("compact-threshold", 256, "catalog: full-fold a view once this many appends are pending (0 = never)")
		flushAt     = flag.Int("flush-threshold", 1024, "catalog: flush a view's memview once it holds this many entries (0 = never)")
		maxLevels   = flag.Int("max-delta-levels", 4, "catalog: merge delta levels, forcing past this depth (0 = never)")
		scrubEvery  = flag.Duration("scrub-every", 0, "catalog: checksum-scrub each view at this simulated-time interval (0 = never)")
		backendName = flag.String("backend", "default", "raw-I/O backend for stored view files: pread or mmap")
		walOn       = flag.Bool("wal", false, "write-ahead-log every served view: appends and deletes are group-committed before the ack and replayed on restart")
		syncEvery   = flag.Int("sync-every", 0, "wal: fsync once at most this many writes accumulate in a commit cohort (1 = every write, 0 = window batching only)")
		groupWindow = flag.Duration("group-commit-window", 0, "wal: how long a group-commit leader waits for more writers before the fsync (0 = none)")
		writeRate   = flag.Float64("write-rate", 0, "per-connection write admission: sustained appended/deleted entries per second, bursts up to max(rate, 4096) (0 = unlimited)")
	)
	views := map[string]string{}
	flag.Func("view", "serve a view as name=file.view (repeatable, required)", func(s string) error {
		name, path, ok := strings.Cut(s, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=file.view, got %q", s)
		}
		views[name] = path
		return nil
	})
	flag.Parse()
	if len(views) == 0 && *catalogDir == "" {
		fmt.Fprintln(os.Stderr, "svserve: at least one -view name=file.view (or -catalog dir) is required")
		flag.Usage()
		os.Exit(2)
	}

	var plan sampleview.FaultPlan
	if *profile != "" {
		var err error
		if plan, err = sampleview.FaultProfile(*profile, *faultSeed); err != nil {
			fmt.Fprintf(os.Stderr, "svserve: %v\n", err)
			os.Exit(2)
		}
	}
	backend, err := sampleview.ParseBackendKind(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svserve: %v\n", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		MaxStreams:          *maxStreams,
		MaxStreamsPerConn:   *connStreams,
		MaxStreamsPerTenant: *tenStreams,
		ReplicaID:           *replicaID,
		IdleTimeout:         *idle,
		RequestTimeout:      *reqTimeout,
		MaxWriteBacklog:     *backlog,
		WriteRate:           *writeRate,
	})
	for name, path := range views {
		v, err := sampleview.Open(path, sampleview.Options{
			Faults:         plan,
			Backend:        backend,
			WAL:            *walOn,
			WALSyncEvery:   *syncEvery,
			WALGroupWindow: *groupWindow,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "svserve: %v\n", err)
			os.Exit(1)
		}
		defer v.Close()
		srv.AddView(name, v)
		fmt.Printf("serving %-16s %s (%d records, %d dims)\n", name, path, v.Count(), v.Dims())
		if replayed := v.WriteStats().WALReplayed; replayed > 0 {
			fmt.Printf("recovered %-16s %d logged operations replayed\n", name, replayed)
		}
	}
	if *catalogDir != "" {
		cat, err := sampleview.NewCatalog(*catalogDir,
			sampleview.ShardedOptions{
				Faults:         plan,
				Backend:        backend,
				WAL:            *walOn,
				WALSyncEvery:   *syncEvery,
				WALGroupWindow: *groupWindow,
			},
			sampleview.CatalogPolicy{
				CompactThreshold: *compactAt,
				FlushThreshold:   *flushAt,
				MaxDeltaLevels:   *maxLevels,
				ScrubEvery:       *scrubEvery,
			})
		if err != nil {
			fmt.Fprintf(os.Stderr, "svserve: %v\n", err)
			os.Exit(1)
		}
		defer cat.Close()
		srv.SetCatalog(cat)
		for _, info := range cat.List() {
			fmt.Printf("catalog %-16s %d shards (%s), %d records, health %s\n",
				info.Name, info.K, info.Partition, info.Count, info.Health)
		}
		fmt.Printf("catalog maintenance: flush at %d buffered, merge past %d delta levels, full-fold at %d pending, scrub every %v of simulated time\n",
			*flushAt, *maxLevels, *compactAt, *scrubEvery)
	}
	if *profile != "" {
		fmt.Printf("fault injection: profile %q, seed %d\n", *profile, *faultSeed)
	}
	if *walOn {
		fmt.Printf("durability: wal on (sync-every %d, group-commit window %v)\n", *syncEvery, *groupWindow)
	}
	if *writeRate > 0 {
		fmt.Printf("write admission: %.0f entries/s per connection\n", *writeRate)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("listening on %s (max %d streams, %d per connection, batches of up to %d)\n",
		ln.Addr(), *maxStreams, *connStreams, server.MaxBatch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("\n%v: draining...\n", s)
		start := time.Now()
		srv.Shutdown()
		fmt.Printf("drained in %v\n", time.Since(start).Round(time.Millisecond))
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "svserve: %v\n", err)
		os.Exit(1)
	}
	srv.Shutdown() // idempotent; waits if the signal handler is mid-drain
	fmt.Println()
	srv.Snapshot().Dump(os.Stdout)
}
