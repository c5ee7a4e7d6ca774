// Package par provides the small fork-join helpers the parallel
// construction pipeline and the figure harness share: a first-error
// collector, a goroutine group, and a bounded parallel for-each.
//
// None of the helpers impose an ordering of their own; callers that need
// deterministic output are responsible for cutting work at fixed boundaries
// and collecting results by index, which is the convention used throughout
// this repository (see extsort.Sort and core.Create).
package par

import "sync"

// First records the first error reported by a pool of workers. The zero
// value is ready to use. Failed lets workers skip remaining work early;
// errors reported after the first are dropped.
type First struct {
	mu  sync.Mutex
	e   error // guarded by mu
	bad bool  // guarded by mu
}

// Set records err as the pool's failure, keeping only the first one.
func (f *First) Set(err error) {
	f.mu.Lock()
	if f.e == nil {
		f.e = err
	}
	f.bad = true
	f.mu.Unlock()
}

// Failed reports whether any error has been recorded.
func (f *First) Failed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bad
}

// Err returns the first recorded error, if any.
func (f *First) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e
}

// Group runs functions concurrently and reports the first error when all
// have finished. The zero value is ready to use.
type Group struct {
	wg sync.WaitGroup
	ff First
}

// Go starts fn in its own goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.ff.Set(err)
		}
	}()
}

// Wait blocks until every function started with Go has returned and
// reports the first error among them.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.ff.Err()
}

// ForEach calls fn(i) for every i in [0, n), spread over up to workers
// goroutines. With workers <= 1 the calls happen inline, in order. After a
// failure remaining indices are skipped (workers drain the queue without
// calling fn) and the first error is returned.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var ff First
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ff.Failed() {
					continue
				}
				if err := fn(i); err != nil {
					ff.Set(err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ff.Err()
}
