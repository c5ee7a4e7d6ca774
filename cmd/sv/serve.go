package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
	"unicode"

	"sampleview"
	"sampleview/internal/fleet"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/server"
)

// serve serves views over TCP until ctx is done: clients open online
// sample streams, pull batches whose every prefix is a uniform sample, run
// estimates and write, with admission control. With -catalog it also hosts
// a sharded view catalog, whose maintenance runs between request bursts.
func serve(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("serve", stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:7070", "address to listen on")
		maxStreams  = fs.Int("max-streams", 256, "server-wide cap on open streams")
		connStreams = fs.Int("conn-streams", 16, "per-connection cap on open streams")
		tenStreams  = fs.Int("tenant-streams", 0, "per-tenant cap on open streams, summed across connections (0 = -max-streams)")
		replicaID   = fs.String("replica-id", "", "name this server in a fleet (reported via replica-info)")
		idle        = fs.Duration("idle", 0, "reap streams idle this long on the simulated disk clock (0 = never)")
		reqTimeout  = fs.Duration("req-timeout", 0, "wall-clock deadline per in-flight request (0 = none)")
		profile     = fs.String("fault-profile", "", "inject storage faults on every served view: "+strings.Join(iosim.Profiles(), ", "))
		faultSeed   = fs.Uint64("fault-seed", 1, "seed for the injected fault schedule")
		backlog     = fs.Int("write-backlog", 0, "reject appends once a view's memview holds this many entries (0 = default 65536)")
		catalogDir  = fs.String("catalog", "", "host the sharded view catalog rooted at this directory")
		compactAt   = fs.Int("compact-threshold", 256, "catalog: full-fold a view once this many appends are pending (0 = never)")
		flushAt     = fs.Int("flush-threshold", 1024, "catalog: flush a view's memview once it holds this many entries (0 = never)")
		maxLevels   = fs.Int("max-delta-levels", 4, "catalog: merge delta levels, forcing past this depth (0 = never)")
		scrubEvery  = fs.Duration("scrub-every", 0, "catalog: checksum-scrub each view at this simulated-time interval (0 = never)")
		backendName = fs.String("backend", "default", "raw-I/O backend for stored view files: pread or mmap")
		walOn       = fs.Bool("wal", false, "write-ahead-log every served view: appends and deletes are group-committed before the ack and replayed on restart")
		groupWindow = fs.Duration("group-commit-window", 0, "wal: how long a group-commit leader waits for more writers before the fsync (0 = none)")
		writeRate   = fs.Float64("write-rate", 0, "per-tenant write admission, one bucket across a tenant's connections (a connection that sets no tenant is its own tenant): sustained appended/deleted entries per second, bursts up to max(rate, 4096) (0 = unlimited)")
	)
	views := map[string]string{}
	fs.Func("view", "serve a view as name=file.view (repeatable, required)", func(s string) error {
		name, path, ok := strings.Cut(s, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=file.view, got %q", s)
		}
		views[name] = path
		return nil
	})
	if err := parse(fs, args); err != nil {
		return err
	}
	if len(views) == 0 && *catalogDir == "" {
		return misuse(fs, "at least one -view name=file.view (or -catalog dir) is required")
	}

	var plan sampleview.FaultPlan
	if *profile != "" {
		var err error
		if plan, err = sampleview.FaultProfile(*profile, *faultSeed); err != nil {
			return fail(2, err)
		}
	}
	backend, err := pagefile.ParseBackendKind(*backendName)
	if err != nil {
		return fail(2, err)
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
			WALGroupWindow: *groupWindow,
		})
		if err != nil {
			return err
		}
		defer v.Close()
		srv.AddView(name, v)
		fmt.Fprintf(stdout, "serving %-16s %s (%d records, %d dims)\n", name, path, v.Count(), v.Dims())
		if replayed := v.WriteStats().WALReplayed; replayed > 0 {
			fmt.Fprintf(stdout, "recovered %-16s %d logged operations replayed\n", name, replayed)
		}
	}
	if *catalogDir != "" {
		cat, err := sampleview.NewCatalog(*catalogDir,
			sampleview.ShardedOptions{
				Faults:         plan,
				Backend:        backend,
				WAL:            *walOn,
				WALGroupWindow: *groupWindow,
			},
			sampleview.CatalogPolicy{
				CompactThreshold: *compactAt,
				FlushThreshold:   *flushAt,
				MaxDeltaLevels:   *maxLevels,
				ScrubEvery:       *scrubEvery,
			})
		if err != nil {
			return err
		}
		defer cat.Close()
		srv.SetCatalog(cat)
		for _, info := range cat.List() {
			fmt.Fprintf(stdout, "catalog %-16s %d shards (%s), %d records, health %s\n",
				info.Name, info.K, info.Partition, info.Count, info.Health)
		}
		fmt.Fprintf(stdout, "catalog maintenance: flush at %d buffered, merge past %d delta levels, full-fold at %d pending, scrub every %v of simulated time\n",
			*flushAt, *maxLevels, *compactAt, *scrubEvery)
	}
	if *profile != "" {
		fmt.Fprintf(stdout, "fault injection: profile %q, seed %d\n", *profile, *faultSeed)
	}
	if *walOn {
		fmt.Fprintf(stdout, "durability: wal on (group-commit window %v)\n", *groupWindow)
	}
	if *writeRate > 0 {
		fmt.Fprintf(stdout, "write admission: %.0f entries/s per tenant (a connection that sets no tenant is its own)\n", *writeRate)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on %s (max %d streams, %d per connection, batches of up to %d)\n",
		ln.Addr(), *maxStreams, *connStreams, server.MaxBatch)
	return serveUntilDone(ctx, srv, ln, stdout)
}

// route fronts sv serve replicas with one endpoint speaking the same
// protocol until ctx is done (see package fleet). Every replica must serve
// byte-identical view files; the router keeps them identical by fanning
// every write out to all live replicas.
func route(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("route", stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:7000", "address to listen on")
		replicas   = fs.String("replicas", "", "comma-separated replica addresses (required)")
		hedgeAfter = fs.Duration("hedge-after", 0, "hedge a batch pull against a second replica after this long (0 = never; a hedged pull costs a goroutine hand-off an unhedged one does not)")
		tenStreams = fs.Int("tenant-streams", 0, "fleet-wide open-stream cap per tenant (0 = fair share of fleet capacity)")
		tenRate    = fs.Float64("tenant-write-rate", 0, "per-tenant write admission: sustained entries per second, bursts up to max(rate, 4096) (0 = unlimited)")
		seed       = fs.Uint64("seed", 1, "seed for router-assigned stream seeds")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	addrs := strings.FieldsFunc(*replicas, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if len(addrs) == 0 {
		return misuse(fs, "-replicas with at least one address is required")
	}

	router, err := fleet.New(fleet.Config{
		Replicas:        addrs,
		HedgeAfter:      *hedgeAfter,
		TenantStreams:   *tenStreams,
		TenantWriteRate: *tenRate,
		Seed:            *seed,
	})
	if err != nil {
		return fail(2, err)
	}
	if err := router.Connect(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fleet: %d replicas configured, %d live\n", len(addrs), router.ReplicasLive())
	for _, a := range addrs {
		fmt.Fprintf(stdout, "  replica %s\n", a)
	}
	if *hedgeAfter > 0 {
		fmt.Fprintf(stdout, "hedged reads: after %v\n", *hedgeAfter)
	}
	if *tenStreams > 0 {
		fmt.Fprintf(stdout, "tenant quota: %d streams per tenant\n", *tenStreams)
	} else {
		fmt.Fprintln(stdout, "tenant quota: fair share of fleet capacity")
	}
	if *tenRate > 0 {
		fmt.Fprintf(stdout, "tenant write admission: %.0f entries/s\n", *tenRate)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		router.Shutdown() // hang up the replica connections Connect opened
		return err
	}
	fmt.Fprintf(stdout, "routing on %s\n", ln.Addr())
	return serveUntilDone(ctx, router, ln, stdout)
}

// engine is what serve and route run: a server.Server or a fleet.Router.
type engine interface {
	Serve(net.Listener) error
	Shutdown()
	Snapshot() *server.StatsSnapshot
}

// serveUntilDone serves e on ln until ctx is done, then drains it: every
// connection finishes the request it is serving before it closes. It ends
// with e's statistics. An accept failure ends it early, with no statistics.
func serveUntilDone(ctx context.Context, e engine, ln net.Listener, stdout io.Writer) error {
	served := make(chan error, 1)
	go func() { served <- e.Serve(ln) }()
	select {
	case err := <-served: // accept failed
		e.Shutdown()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "\ndraining...")
	start := time.Now()
	e.Shutdown()
	fmt.Fprintf(stdout, "drained in %v\n", time.Since(start).Round(time.Millisecond))
	if err := <-served; err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	e.Snapshot().Dump(stdout)
	return nil
}
