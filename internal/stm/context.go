package stm

import "context"

// Context-aware transaction entry points. Cancellation is observed at
// three places only:
//
//   - before the first attempt (a cancelled context runs nothing),
//   - between attempts, after a conflict abort's backoff (so a
//     transaction stuck in the backoff/serialization escalation loop
//     honors its deadline), and
//   - while blocked in Retry — both parked on watchers and in the
//     serial-mode retry's optimistic re-run. A waiter woken by
//     cancellation unregisters from every watched var before
//     returning, so no watcher entries leak.
//
// fn itself is never interrupted, and a transaction whose commit
// succeeded is reported committed (nil error) even if the context
// expired concurrently: callers never see a "cancelled" result for a
// transaction whose effects are visible.

// AtomicCtx is Atomic with cancellation and deadline support. It
// returns ctx.Err() if ctx is cancelled before the transaction commits.
// A nil ctx behaves exactly like Atomic.
func (rt *Runtime) AtomicCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return rt.run(ctx, 0, fn, false, false)
}
