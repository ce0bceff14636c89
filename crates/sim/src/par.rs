//! Deterministic thread-parallel execution for independent jobs.
//!
//! A protocol run is serial: a session validates and delivers senders on
//! the calling thread, in ascending [`NodeId`](crate::NodeId) order.
//! Parallelism lives one level up, across *jobs*: the `clique-serve`
//! worker fleet runs each wave of independent jobs through
//! [`map`]. It is a *scoped* pool: each call spawns up to `threads` OS
//! threads via [`std::thread::scope`], which lets workers borrow the
//! caller's data directly (no `'static` bounds, no unsafe, no vendored
//! dependencies) at the cost of a spawn per call.
//!
//! # The determinism contract
//!
//! Work is split into *contiguous index chunks* and every result lands in
//! the slot its index owns, so [`map`] returns the same vector at any
//! worker count; since each job runs on a fresh session, its transcript
//! cannot depend on which worker ran it.

use std::ops::Range;

/// The worker count a protocol run uses: always 1, since sessions are
/// serial. Reports that record the execution set-up print it.
pub fn threads() -> usize {
    1
}

/// Splits `len` items into at most `threads` contiguous ranges of
/// near-equal length (empty ranges are not produced).
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let per = len.div_ceil(threads.clamp(1, len.max(1))).max(1);
    (0..len)
        .step_by(per)
        .map(|start| start..(start + per).min(len))
        .collect()
}

/// Runs `f(index)` for every index in `0..len` and collects the results in
/// index order, splitting the index space into contiguous chunks across up
/// to `threads` scoped workers. With `threads <= 1` (or one item) this is a
/// plain serial loop on the calling thread.
///
/// A panic in `f` propagates to the caller.
pub fn map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|s| {
        let handles: Vec<_> = chunk_ranges(len, threads)
            .into_iter()
            .map(|range| {
                let f = &f;
                s.spawn(move || range.map(f).collect::<Vec<T>>())
            })
            .collect();
        // Joining in spawn order keeps the concatenation in index order
        // regardless of which worker finishes first.
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for (len, t) in [
            (0usize, 4usize),
            (1, 4),
            (5, 2),
            (7, 3),
            (8, 8),
            (9, 16),
            (100, 7),
        ] {
            let ranges = chunk_ranges(len, t);
            let mut covered = Vec::new();
            for r in &ranges {
                assert!(!r.is_empty(), "empty chunk for len={len}, t={t}");
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len={len}, t={t}");
            assert!(ranges.len() <= t.max(1));
        }
    }

    #[test]
    fn map_preserves_index_order_at_any_thread_count() {
        for t in [1usize, 2, 3, 8, 64] {
            let got = map(37, t, |i| i * i);
            let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, expected, "threads={t}");
        }
        assert!(map(0, 4, |i| i).is_empty());
    }
}
