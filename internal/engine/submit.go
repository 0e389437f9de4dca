package engine

// The submission API: where Run drives the engine from a finite Source that
// drains, a long-running service (cmd/lpod) feeds windows incrementally as
// they arrive over HTTP. Queue is a Source whose items are pushed by
// Submit, and Submitter binds a Queue to a live Run so a daemon can keep
// one warm engine — program cache, CEPool, verify cache, learned rules —
// across millions of submissions.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/extract"
	"repro/internal/ir"
)

// ErrQueueClosed is returned by Submit after Close.
var ErrQueueClosed = errors.New("engine: submit queue closed")

// ErrQueueFull is returned by TrySubmit when the queue's buffer is full —
// the non-blocking admission signal a service turns into 429 Too Many
// Requests instead of letting slow engine workers wedge its handlers.
var ErrQueueFull = errors.New("engine: submit queue full")

// Queue is a Source fed incrementally by Submit instead of drained from a
// fixed corpus. The engine's feeder pulls from it like any other Source;
// Close marks the end of the stream, after which already-submitted items
// still drain. Submit blocks while the engine's bounded queues are full, so
// backpressure reaches the submitter exactly like it reaches a corpus
// feeder.
type Queue struct {
	ch     chan *extract.Sequence
	closed chan struct{}
	once   sync.Once
}

// NewQueue builds a queue with the given buffer (values below 1 get an
// unbuffered channel: each Submit rendezvouses with the feeder).
func NewQueue(buffer int) *Queue {
	if buffer < 0 {
		buffer = 0
	}
	return &Queue{ch: make(chan *extract.Sequence, buffer), closed: make(chan struct{})}
}

// Submit enqueues one sequence, blocking while the queue is full. It fails
// with ErrQueueClosed after Close and with ctx.Err() if the context ends
// while blocked.
func (q *Queue) Submit(ctx context.Context, seq *extract.Sequence) error {
	select {
	case <-q.closed:
		return ErrQueueClosed
	default:
	}
	select {
	case q.ch <- seq:
		return nil
	case <-q.closed:
		return ErrQueueClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrySubmit enqueues one sequence without blocking: it fails with
// ErrQueueFull when the buffer is full and ErrQueueClosed after Close.
func (q *Queue) TrySubmit(seq *extract.Sequence) error {
	select {
	case <-q.closed:
		return ErrQueueClosed
	default:
	}
	select {
	case q.ch <- seq:
		return nil
	case <-q.closed:
		return ErrQueueClosed
	default:
		return ErrQueueFull
	}
}

// Close ends the stream: Submit starts failing, and once the buffered items
// drain, Next reports the source as drained (which lets the engine's run
// finish and its result channel close). Close is idempotent.
func (q *Queue) Close() { q.once.Do(func() { close(q.closed) }) }

// Next implements Source. It blocks until an item is submitted, the queue
// is closed and drained, or ctx ends.
func (q *Queue) Next(ctx context.Context) (*extract.Sequence, bool, error) {
	select {
	case seq := <-q.ch:
		return seq, true, nil
	default:
	}
	select {
	case seq := <-q.ch:
		return seq, true, nil
	case <-q.closed:
		// Closed: hand out whatever is still buffered, then report drained.
		select {
		case seq := <-q.ch:
			return seq, true, nil
		default:
			return nil, false, nil
		}
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Submitter is a live engine run fed by Submit calls: the streaming
// counterpart of RunAll for long-running services. Build one with
// Engine.Submitter, push windows with Submit/SubmitSeq, consume Results
// (emitted in submission order, exactly one per submission), and Close to
// drain. The zero-memory contract of Run applies: abandon Results only by
// cancelling the context passed to Submitter.
type Submitter struct {
	q       *Queue
	results <-chan Result
}

// Submitter starts a Run over a fresh submit queue and returns the handle.
// The run lives until Close drains it or ctx is cancelled. The engine's
// caches, counterexample pool and learned-rule state are shared with any
// other runs of the same Engine, which is the point: a daemon keeps them
// warm across submissions.
func (e *Engine) Submitter(ctx context.Context) *Submitter {
	q := NewQueue(e.cfg.QueueSize)
	results, _ := e.Run(ctx, q)
	return &Submitter{q: q, results: results}
}

// Submit wraps a bare window function as a sequence and enqueues it.
func (s *Submitter) Submit(ctx context.Context, fn *ir.Func) error {
	return s.q.Submit(ctx, &extract.Sequence{Fn: fn, Len: fn.NumInstrs(true)})
}

// SubmitSeq enqueues an already-extracted sequence.
func (s *Submitter) SubmitSeq(ctx context.Context, seq *extract.Sequence) error {
	return s.q.Submit(ctx, seq)
}

// TrySubmit is the non-blocking Submit: ErrQueueFull when the engine's
// queue has no room, so a service can shed load with 429 instead of
// blocking its handler.
func (s *Submitter) TrySubmit(fn *ir.Func) error {
	return s.q.TrySubmit(&extract.Sequence{Fn: fn, Len: fn.NumInstrs(true)})
}

// Results is the engine's ordered result stream: one Result per submission,
// in submission order. The channel closes after Close once every
// outstanding submission has drained.
func (s *Submitter) Results() <-chan Result { return s.results }

// Close stops accepting submissions and lets the run drain; pending
// submissions still produce Results. Idempotent.
func (s *Submitter) Close() { s.q.Close() }
