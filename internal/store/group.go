package store

// Group commit: the store's durability path. One committer goroutine per log,
// running from open to Close, turns any number of concurrent Flush callers
// into one framed batch and one fsync (leader/follower: whoever wakes the
// committer first leads; everyone who registered before the batch commits
// rides along). Because commit performs its disk I/O without the index
// lock, writers keep Put-ing WHILE the current batch fsyncs — those records
// form the next batch, so the batch size adapts to how slow the disk is.

import (
	"runtime"
	"sync"
	"time"
)

// GroupCommitOptions tunes the committer (Options.Commit). The zero value
// picks defaults.
type GroupCommitOptions struct {
	// MaxDelay is the coalescing window: after the committer wakes it waits
	// up to MaxDelay for more records before committing, unless MaxBatch
	// records are already pending. 0 means the default (500µs); negative
	// disables coalescing (commit immediately on wake), so serial Put+Flush
	// pays exactly one fsync per record.
	MaxDelay time.Duration
	// MaxBatch commits the batch early once this many records are pending.
	// 0 means the default (512).
	MaxBatch int
	// RetryDelay is how long the committer waits after a FAILED commit
	// before retrying the pending batch on its own — the "no accepted
	// record lost" backstop that drains a backlog even when no new traffic
	// arrives to trigger a Flush. 0 means the default (500ms); negative
	// disables background retry.
	RetryDelay time.Duration
}

func (o GroupCommitOptions) withDefaults() GroupCommitOptions {
	if o.MaxDelay == 0 {
		o.MaxDelay = 500 * time.Microsecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 512
	}
	if o.RetryDelay == 0 {
		o.RetryDelay = 500 * time.Millisecond
	}
	return o
}

// committer is the per-log group-commit worker.
type committer struct {
	s    *shard
	opts GroupCommitOptions

	mu      sync.Mutex
	waiters []chan<- error

	wake     chan struct{} // 1-buffered doorbell
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// startCommitter starts s's committer goroutine.
func startCommitter(s *shard, opts GroupCommitOptions) *committer {
	c := &committer{
		s:    s,
		opts: opts.withDefaults(),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

// shutdown stops the committer after a final commit attempt of whatever is
// pending. Idempotent.
func (c *committer) shutdown() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Flush is the durability barrier: it returns once every record Put before
// the call is durable on disk, or with the error of the commit attempt that
// should have covered it (the batch then stays pending, exactly as after a
// failed commit). Concurrent Flushes share one fsync.
func (s *shard) Flush() error {
	s.mu.Lock()
	if len(s.dirty) == 0 {
		// Everything accepted so far is durable. (commit covers all dirty
		// records and holds mu while updating, so an empty dirty list under
		// mu really means "nothing pending".)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	c := s.gc
	ch := make(chan error, 1)
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	c.ring()
	select {
	case err := <-ch:
		return err
	case <-c.done:
		// The committer shut down concurrently (a Flush racing Close). Its
		// final drain may or may not have claimed this waiter; if not,
		// commit directly — after Close that fails on the closed log
		// instead of hanging.
		select {
		case err := <-ch:
			return err
		default:
			return s.commit()
		}
	}
}

// ring rings the doorbell without blocking (a pending ring is enough).
func (c *committer) ring() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// run is the committer loop: wait for a doorbell (or a retry deadline),
// coalesce briefly, commit once, notify every waiter registered before the
// commit. A waiter that registers mid-commit is picked up by the next round
// — its records are covered either by this batch (if its Put preceded the
// batch snapshot) or by the next one; either way the notification it gets
// reflects a commit attempt that covered its records.
func (c *committer) run() {
	defer close(c.done)
	var retry <-chan time.Time
	for {
		select {
		case <-c.stop:
			// Final drain: one last attempt so a clean shutdown never
			// leaves records pending just because nobody called Flush.
			// Claim waiters BEFORE committing — anyone registering later
			// falls back through the done channel and commits directly.
			ws := c.take()
			c.notify(ws, c.s.commit())
			return
		case <-c.wake:
		case <-retry:
		}
		retry = nil
		c.coalesce()
		ws := c.take()
		err := c.s.commit()
		c.notify(ws, err)
		if err != nil && c.opts.RetryDelay > 0 {
			retry = time.After(c.opts.RetryDelay)
		}
	}
}

// coalesce lets the batch grow while records are still arriving and returns
// as soon as it stalls: two consecutive looks (a scheduler yield apart) at
// the same pending count mean every writer that was going to join this
// batch has — more waiting would only add latency, not amortization. MaxBatch
// caps the batch outright and MaxDelay is the hard time cap (it is a
// backstop, not the expected exit: OS timer granularity is orders of
// magnitude coarser than a commit cycle, so an arrival-driven exit is what
// keeps group-commit latency scheduler-bound instead of timer-bound).
func (c *committer) coalesce() {
	if c.opts.MaxDelay <= 0 {
		return
	}
	deadline := time.Now().Add(c.opts.MaxDelay)
	last := -1
	for {
		c.s.mu.RLock()
		n := len(c.s.dirty)
		c.s.mu.RUnlock()
		if n >= c.opts.MaxBatch || n == last {
			return
		}
		last = n
		select {
		case <-c.stop:
			return
		default:
		}
		runtime.Gosched()
		if time.Now().After(deadline) {
			return
		}
	}
}

// take claims the current waiter list.
func (c *committer) take() []chan<- error {
	c.mu.Lock()
	ws := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	return ws
}

// notify delivers the commit outcome to every claimed waiter.
func (c *committer) notify(ws []chan<- error, err error) {
	for _, ch := range ws {
		ch <- err
	}
}
