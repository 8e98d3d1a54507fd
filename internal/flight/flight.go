// Package flight is the one cache primitive of the repository: a
// bounded LRU with singleflight semantics. The first caller of a key
// computes it while concurrent callers of the same key block on that
// one computation, and distinct keys compute in parallel — the property
// the parallel sweep engine needs from the shared evaluator caches (one
// mutex around the compute would serialize every worker; no dedup would
// compute each shared grid-point profile once per worker), and the one
// karma-serve's response cache needs to turn a burst of identical
// requests into one evaluation.
//
// Two properties make a Cache safe to hold for the life of a daemon
// process, where keys derive from client requests:
//
//   - Entries are bounded by an LRU policy: inserting a fresh key beyond
//     the bound evicts the least-recently-used entry. Every cached
//     computation must be a pure function of its key, so eviction can
//     never change a result — a re-computed entry is bit-identical to the
//     evicted one — it only trades memory for recompute time.
//   - Failures are never retained: a computation that returns an error or
//     panics is removed as soon as it resolves, so the next lookup of
//     that key retries instead of serving a stale failure forever.
//     Callers already blocked on the failing flight share its error (that
//     is the singleflight contract); callers arriving after it resolved
//     start a fresh computation.
package flight

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Cache is a bounded, singleflight LRU cache. Create one with New; it
// is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	m     map[K]*entry[K, V]
	// Intrusive LRU ring threaded through the entries; root.next is the
	// most recently used, root.prev the eviction candidate. The sentinel
	// root keeps link surgery free of nil special cases.
	root entry[K, V]
	st   Stats
}

type entry[K comparable, V any] struct {
	key        K
	once       sync.Once
	v          V
	err        error
	prev, next *entry[K, V]
}

// New returns an empty cache holding at most limit entries. limit must
// be positive.
func New[K comparable, V any](limit int) *Cache[K, V] {
	c := &Cache[K, V]{limit: limit, m: map[K]*entry[K, V]{}}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// Do returns the cached value for k, computing it with fn exactly once
// across all concurrent callers. A nil error caches the value (until
// LRU eviction). A non-nil error — or a *PanicError when fn panics — is
// returned to every caller of the in-flight computation and then
// forgotten, so later callers retry.
func (c *Cache[K, V]) Do(k K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	e := c.m[k]
	if e != nil {
		c.st.Hits++
		c.unlink(e)
		c.pushFront(e)
	} else {
		c.st.Misses++
		e = &entry[K, V]{key: k}
		c.m[k] = e
		c.pushFront(e)
		// Evicting an entry whose computation is still in flight is
		// harmless: its waiters hold the entry pointer and complete on
		// it; the entry is merely no longer findable, exactly as if it
		// had been evicted the moment it resolved.
		for len(c.m) > c.limit {
			old := c.root.prev
			c.unlink(old)
			delete(c.m, old.key)
			c.st.Evictions++
		}
	}
	c.mu.Unlock()

	e.once.Do(func() { e.v, e.err = run(fn) })
	if e.err != nil {
		// Forget the failed flight so the next Do(k) retries. Guard on
		// identity: the slot may already hold a fresh retry entry (or the
		// failed one may have been evicted), which must not be dropped.
		c.mu.Lock()
		if c.m[k] == e {
			c.unlink(e)
			delete(c.m, k)
		}
		c.mu.Unlock()
	}
	return e.v, e.err
}

// run calls fn, converting a panic into a *PanicError. sync.Once marks
// itself done even when its function panics, so an unrecovered panic
// would leave the entry resolved to the zero value for every waiter and
// every later caller.
func run[V any](fn func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			// A nested cache already captured the original stack.
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Value: r, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	return fn()
}

// Len returns the resident entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns a snapshot of the cache's counters and size.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.st
	s.Entries = len(c.m)
	return s
}

// Stats is a point-in-time snapshot of one or more caches (karma-serve's
// /stats endpoint renders one per cache layer).
type Stats struct {
	// Hits counts lookups that found an entry (including joins on an
	// in-flight computation).
	Hits uint64
	// Misses counts lookups that started a computation.
	Misses uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Entries is the resident entry count at snapshot time.
	Entries int
}

// Sum adds snapshots of several caches into one.
func Sum(ss ...Stats) Stats {
	var t Stats
	for _, s := range ss {
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.Entries += s.Entries
	}
	return t
}

// PanicError is the error every caller of a flight receives when its
// computation panicked: Value is the panic value, Stack the computing
// goroutine's stack at the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("flight: computation panicked: %v", e.Value)
}
