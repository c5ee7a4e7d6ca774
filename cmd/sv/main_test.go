package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sampleview"
	"sampleview/internal/server"
	"sampleview/internal/shard"
	"sampleview/internal/workload"
)

// sv runs one command line in process and returns its exit status and
// output.
func sv(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustSV runs a command line that must succeed.
func mustSV(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := sv(t, args...)
	if code != 0 {
		t.Fatalf("sv %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	return stdout, stderr
}

// wantLines fails unless every line of want appears, whole, in out.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	have := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		have[l] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing line %q in:\n%s", w, out)
		}
	}
}

// wantMatch fails unless a line of out matches the regular expression re.
func wantMatch(t *testing.T, out, re string) {
	t.Helper()
	if !regexp.MustCompile("(?m)^" + re + "$").MatchString(out) {
		t.Fatalf("no line matches %q in:\n%s", re, out)
	}
}

const testRecords = 20_000

// buildView builds a testRecords-record view with sv build and returns its
// path.
func buildView(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sale.view")
	out, _ := mustSV(t, "build", "-out", path, "-n", fmt.Sprint(testRecords), "-seed", "3")
	wantMatch(t, out, regexp.QuoteMeta("built "+path+": 20000 records, 1 dims, height ")+`\d+, in .*`)
	wantMatch(t, out, `construction I/O: \d+ reads, \d+ writes \(simulated disk time .*\)`)
	return path
}

// countInRange counts the records sv build -seed 3 generates with a key in
// [lo, hi].
func countInRange(lo, hi int64) int {
	gen := workload.NewGenerator(workload.Uniform, 3)
	n := 0
	for i := 0; i < testRecords; i++ {
		if r := gen.Next(); r.Key >= lo && r.Key <= hi {
			n++
		}
	}
	return n
}

func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // in stderr
	}{
		{nil, 2, "usage: sv build|sample|query|inspect|serve|route [flags]"},
		{[]string{"frobnicate"}, 2, "usage: sv build|"},
		{[]string{"build"}, 2, "sv build: -out is required\nUsage of sv build:"},
		{[]string{"build", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"build", "-h"}, 0, "Usage of sv build:"},
		{[]string{"build", "-out", "x.view", "-dist", "gaussian"}, 2, "sv build: "},
		{[]string{"sample"}, 2, "sv sample: -view is required"},
		{[]string{"query", "-view", "x.view"}, 2, `usage: sv query [-connect host:port] -view file.view "SELECT ..."`},
		{[]string{"query", "-view", "x.view", "SELEKT"}, 2, "sv query: "},
		{[]string{"inspect"}, 2, "sv inspect: exactly one of -view or -catalog is required"},
		{[]string{"serve"}, 2, "sv serve: at least one -view name=file.view (or -catalog dir) is required"},
		{[]string{"serve", "-view", "sale"}, 2, `invalid value "sale" for flag -view: want name=file.view`},
		{[]string{"serve", "-view", "a=b", "-fault-profile", "gremlins"}, 2, "sv serve: "},
		{[]string{"serve", "-view", "a=b", "-backend", "tape"}, 2, "sv serve: "},
		{[]string{"route"}, 2, "sv route: -replicas with at least one address is required"},
	} {
		code, _, stderr := sv(t, c.args...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("sv %q: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr, c.code, c.want)
		}
	}
	if out, _ := mustSV(t, "help"); !strings.HasPrefix(out, "usage: sv build|") {
		t.Errorf("sv help printed %q", out)
	}
}

func TestBuildSampleInspect(t *testing.T) {
	path := buildView(t)

	out, stderr := mustSV(t, "sample", "-view", path, "-count", "5")
	if n := len(regexp.MustCompile(`(?m)^key=-?\d+ amount=-?\d+ seq=\d+$`).FindAllString(out, -1)); n != 5 {
		t.Errorf("sample -count 5 printed %d records:\n%s", n, out)
	}
	wantMatch(t, stderr, `5 samples; I/O: \d+ random \+ \d+ sequential reads; simulated time .*`)

	// -count 0 drains the predicate: every match, once.
	lo, hi := int64(1)<<20, int64(1)<<30
	out, _ = mustSV(t, "sample", "-view", path, "-lo", fmt.Sprint(lo), "-hi", fmt.Sprint(hi), "-count", "0")
	seen := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if l != "" {
			seen[l] = true
		}
	}
	if want := countInRange(lo, hi); len(seen) != want || strings.Count(out, "\n") != want {
		t.Errorf("drained %d lines (%d distinct), want the %d matching records", strings.Count(out, "\n"), len(seen), want)
	}

	out, _ = mustSV(t, "inspect", "-view", path)
	wantLines(t, out,
		"view:            "+path,
		"records:         20000",
		"dimensions:      1",
		"delta ladder:    0 level(s), 0 inserts, 0 tombstones")
	wantMatch(t, out, `section totals:  S1=\d+( S\d+=\d+)*`)
	if strings.Contains(out, "checksums") {
		t.Errorf("inspect without -verify ran the checks:\n%s", out)
	}

	out, _ = mustSV(t, "inspect", "-view", path, "-verify")
	wantMatch(t, out, `checksums\.\.\.     ok \(\d+ pages verified\)`)
	wantLines(t, out, "verifying...     ok (all invariants hold)")
	wantMatch(t, out, `verify cost:     \d+ pages read \(\d+ sequential, \d+ random\), .* simulated`)

	// One flipped byte in the middle of the file is a corrupt page.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.view")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := sv(t, "inspect", "-view", bad, "-verify")
	if code != 1 || !strings.Contains(out, "checksums...     FAILED (1 corrupt pages)") {
		t.Errorf("inspect -verify of a damaged view: exit %d\n%s", code, out)
	}
}

func TestBuildFromCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(csv, []byte("# key,amount\n10,1\nnot a record\n20,2\n30,3,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sales.view")
	out, stderr := mustSV(t, "build", "-out", path, "-csv", csv)
	wantMatch(t, stderr, regexp.QuoteMeta("sv build: "+csv+":3: ")+".*")
	wantMatch(t, out, regexp.QuoteMeta("built "+path+": 3 records, 1 dims, height ")+".*")

	missing := filepath.Join(dir, "missing.csv")
	if code, _, stderr := sv(t, "build", "-out", path, "-csv", missing); code != 1 || !strings.HasPrefix(stderr, "sv build: open "+missing+": ") {
		t.Errorf("build from a missing CSV: exit %d, stderr %q", code, stderr)
	}
}

// A CSV that cannot be read to its end fails the build and leaves no view:
// here line 1,001 of 2,001 is longer than the line reader accepts.
func TestBuildCSVReadErrorRemovesView(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for i := 1; i <= 2001; i++ {
		if i == 1001 {
			fmt.Fprintf(&b, "%d,%s\n", i, strings.Repeat("9", 70_000))
			continue
		}
		fmt.Fprintf(&b, "%d,%d\n", i, i%97)
	}
	csv := filepath.Join(dir, "long.csv")
	if err := os.WriteFile(csv, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "long.view")
	code, out, stderr := sv(t, "build", "-out", path, "-csv", csv)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	wantLines(t, stderr, "sv build: "+csv+": bufio.Scanner: token too long")
	if out != "" {
		t.Errorf("a failed build reported:\n%s", out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("partial view left behind: stat = %v", err)
	}
}

func TestInspectCatalog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	cat, err := sampleview.NewCatalog(dir, sampleview.ShardedOptions{}, sampleview.CatalogPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Uniform, 5)
	recs := make([]sampleview.Record, 3_000)
	for i := range recs {
		recs[i] = gen.Next()
	}
	if _, err := cat.Register("sale", recs, shard.Options{K: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	out, _ := mustSV(t, "inspect", "-catalog", dir)
	wantLines(t, out,
		"catalog:         "+dir+" (1 views)",
		"view sale",
		"  shards:        2 (hash partitioning)",
		"  records:       3000 (0 appends pending)",
		"  health:        ok")
	wantMatch(t, out, `  shard 0        \d+ records`)
	wantMatch(t, out, `  shard 1        \d+ records`)

	out, _ = mustSV(t, "inspect", "-catalog", dir, "-verify")
	wantMatch(t, out, `  fsck shard 0   ok \(\d+ pages read, .* simulated\)`)
	wantMatch(t, out, `  fsck shard 1   ok \(\d+ pages read, .* simulated\)`)

	// Inspecting where no catalog is creates nothing.
	missing := filepath.Join(t.TempDir(), "nocat")
	code, out, stderr := sv(t, "inspect", "-catalog", missing)
	if code != 1 || out != "" || !strings.HasPrefix(stderr, "sv inspect: no catalog at "+missing) {
		t.Errorf("inspect -catalog of a missing directory: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("inspect -catalog created %s: stat = %v", missing, err)
	}
}

// serveView serves the view file at path as "sale" from an in-process
// server and returns its address.
func serveView(t *testing.T, path string) string {
	t.Helper()
	v, err := sampleview.Open(path, sampleview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	srv.AddView("sale", v)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Shutdown()
		v.Close()
	})
	return ln.Addr().String()
}

func TestQuery(t *testing.T) {
	path := buildView(t)
	exact := []string{
		"== final (exact: predicate exhausted after 20000 records)",
		"  COUNT=2e+04",
	}
	out, _ := mustSV(t, "query", "-view", path, "-quiet", "SELECT COUNT(*) FROM sale")
	wantLines(t, out, exact...)
	if strings.Contains(out, "-- after") {
		t.Errorf("-quiet printed progress:\n%s", out)
	}

	out, _ = mustSV(t, "query", "-view", path, "SELECT COUNT(*), AVG(amount) FROM sale GROUP BY bucket(key, 1000000000000000000) LIMIT 12000 SAMPLES")
	wantLines(t, out, "-- after 5000 samples", "-- after 10000 samples", "== final (approximate, 12000 samples)")
	wantMatch(t, out, `  \S+ +COUNT=\S+( ci\[\S+, \S+\])?  AVG=\S+ ci\[\S+, \S+\]`)

	code, _, stderr := sv(t, "query", "-view", path, "SELECT COUNT(*) FROM sale WHERE key BETWEEN 0 AND 9 AND amount BETWEEN 0 AND 9")
	if code != 2 || !strings.Contains(stderr, "sv query: query constrains 2 dimensions but the view indexes 1") {
		t.Errorf("2-d query on a 1-d view: exit %d, stderr %q", code, stderr)
	}

	addr := serveView(t, path)
	out, _ = mustSV(t, "query", "-connect", addr, "-view", "sale", "-quiet", "SELECT COUNT(*) FROM sale")
	wantLines(t, out, exact...)
	if code, _, stderr := sv(t, "query", "-connect", addr, "-view", "nope", "SELECT COUNT(*) FROM sale"); code != 1 || !strings.HasPrefix(stderr, "sv query: ") {
		t.Errorf("query of an unknown served view: exit %d, stderr %q", code, stderr)
	}
}

// syncBuffer is a bytes.Buffer a test reads while a command writes it;
// wrote, if set, is signalled after each write.
type syncBuffer struct {
	mu    sync.Mutex
	b     bytes.Buffer
	wrote chan struct{}
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	n, err := s.b.Write(p)
	s.mu.Unlock()
	select {
	case s.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// started runs a serving command line until the returned stop is called,
// once a line of its stdout matches re; it returns re's first submatch.
// stop cancels the command's context and returns its exit status and
// output.
func started(t *testing.T, re string, args ...string) (sub string, stop func() (int, string, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr := &syncBuffer{wrote: make(chan struct{}, 1)}, &syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, stdout, stderr) }()
	stop = func() (int, string, string) {
		cancel()
		return <-done, stdout.String(), stderr.String()
	}
	line := regexp.MustCompile("(?m)^" + re)
	timeout := time.After(20 * time.Second)
	for {
		if m := line.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], stop
		}
		select {
		case <-stdout.wrote:
		case code := <-done:
			t.Fatalf("sv %s exited %d before serving:\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
		case <-timeout:
			code, out, errs := stop()
			t.Fatalf("sv %s never printed %q (exit %d):\n%s%s", strings.Join(args, " "), re, code, out, errs)
		}
	}
}

func TestServe(t *testing.T) {
	path := buildView(t)
	cat := filepath.Join(t.TempDir(), "cat")
	addr, stop := started(t, `listening on (\S+) `, "serve", "-listen", "127.0.0.1:0", "-view", "sale="+path,
		"-catalog", cat, "-wal", "-fault-profile", "none", "-write-rate", "1000")

	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := cl.OpenView("sale")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rv.Query(sampleview.FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := rs.Sample(100); err != nil || len(recs) != 100 {
		t.Fatalf("Sample(100) = %d records, %v", len(recs), err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	code, out, stderr := stop()
	if code != 0 {
		t.Fatalf("serve exited %d:\n%s%s", code, out, stderr)
	}
	wantLines(t, out,
		"serving sale             "+path+" (20000 records, 1 dims)",
		"catalog maintenance: flush at 1024 buffered, merge past 4 delta levels, full-fold at 256 pending, scrub every 0s of simulated time",
		`fault injection: profile "none", seed 1`,
		"durability: wal on (group-commit window 0s)",
		"write admission: 1000 entries/s per tenant (a connection that sets no tenant is its own)",
		"listening on "+addr+" (max 256 streams, 16 per connection, batches of up to 4096)",
		"draining...",
		"connections:     0 open, 1 accepted, 0 rejected",
		"streams:         0 open, 1 opened, 1 closed, 0 reaped")
	wantMatch(t, out, `wire:            \d+ bytes in, \d+ bytes out, 0 bad frames`)
	wantMatch(t, out, `served:          \d+ records in \d+ batches, \d+ estimates`)
}

func TestRoute(t *testing.T) {
	path := buildView(t)
	replicas := serveView(t, path) + "," + serveView(t, path)
	addr, stop := started(t, `routing on (\S+)`, "route", "-listen", "127.0.0.1:0", "-replicas", replicas,
		"-hedge-after", "1s", "-tenant-streams", "4", "-tenant-write-rate", "100")

	out, _ := mustSV(t, "query", "-connect", addr, "-view", "sale", "-quiet", "SELECT COUNT(*) FROM sale")
	wantLines(t, out, "== final (exact: predicate exhausted after 20000 records)", "  COUNT=2e+04")

	code, out, stderr := stop()
	if code != 0 {
		t.Fatalf("route exited %d:\n%s%s", code, out, stderr)
	}
	wantLines(t, out,
		"fleet: 2 replicas configured, 2 live",
		"  replica "+strings.Split(replicas, ",")[0],
		"  replica "+strings.Split(replicas, ",")[1],
		"hedged reads: after 1s",
		"tenant quota: 4 streams per tenant",
		"tenant write admission: 100 entries/s",
		"routing on "+addr,
		"draining...",
		"connections:     0 open, 1 accepted, 0 rejected",
		"streams:         0 open, 1 opened, 1 closed, 0 reaped")
	wantMatch(t, out, `fleet:           \d+ tenants, 0 tenant-cap rejections, \d+ hedged \(\d+ wins\), 0 migrations, 2 replicas live`)

	// A fleet with no replica answering does not start.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	code, out, stderr = sv(t, "route", "-listen", "127.0.0.1:0", "-replicas", dead)
	if code != 1 || out != "" || !strings.HasPrefix(stderr, "sv route: fleet: no replica reachable") {
		t.Errorf("route over a dead replica: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
}
