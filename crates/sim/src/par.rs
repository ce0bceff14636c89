//! Deterministic thread-parallel execution helpers.
//!
//! Everything in the simulator that is embarrassingly parallel — the `n`
//! independent [`NodeAlgorithm::round`](crate::node::NodeAlgorithm::round)
//! calls of a round, the independent grid points of a
//! [`Runner::sweep_par`](crate::protocol::Runner::sweep_par) — runs through
//! this module. It is a *scoped* pool: each parallel region spawns up to
//! [`threads()`] OS threads via [`std::thread::scope`], which lets workers
//! borrow the caller's data directly (no `'static` bounds, no unsafe, no
//! vendored dependencies) at the cost of a spawn per region.
//!
//! # The worker-count knob
//!
//! The effective worker count is resolved, in order, from
//!
//! 1. the process-wide override set with [`set_threads`] (the `--threads N`
//!    flag of the `experiments` binary lands here),
//! 2. the `CLIQUE_THREADS` environment variable (CI runs the whole test
//!    suite under `CLIQUE_THREADS=1` and again under the default),
//! 3. [`std::thread::available_parallelism`].
//!
//! Engines additionally accept a per-instance override (e.g.
//! [`RoundEngine::set_threads`](crate::engine::RoundEngine::set_threads)),
//! which takes precedence over all of the above for that instance and keeps
//! tests comparing thread counts free of global state.
//!
//! # The determinism contract
//!
//! Parallelism must never change what a protocol computes or what the
//! ledger records: work is split into *contiguous index chunks*, every
//! result is written to the slot its index owns, and anything order
//! sensitive (message delivery, metrics, error selection) is merged by the
//! caller in ascending index order afterwards. Running with 1, 2 or 64
//! workers therefore produces bit-identical transcripts — the property
//! pinned by the `parallel_*` proptests in `tests/properties.rs`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide worker-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-wide worker-count override.
/// A `Some(0)` is treated as `Some(1)`.
pub fn set_threads(threads: Option<usize>) {
    OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The process-wide override currently in force, if any.
pub fn threads_override() -> Option<usize> {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        t => Some(t),
    }
}

/// The default worker count when no override is set: `CLIQUE_THREADS` if it
/// parses to a positive integer, otherwise the machine's available
/// parallelism. Cached after the first call.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(value) = std::env::var("CLIQUE_THREADS") {
            if let Ok(t) = value.trim().parse::<usize>() {
                if t >= 1 {
                    return t;
                }
            }
            // An unparsable CLIQUE_THREADS falls through to the hardware
            // default rather than aborting library users; the CLI flags
            // reject bad values loudly instead.
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    })
}

/// The worker count parallel regions use right now:
/// [`threads_override`] if set, else [`default_threads`].
pub fn threads() -> usize {
    threads_override().unwrap_or_else(default_threads)
}

/// Items per contiguous chunk when `len` items are split across at most
/// `threads` workers — the single source of truth for every splitter in
/// this module.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.clamp(1, len.max(1))).max(1)
}

/// Splits `len` items into at most `threads` contiguous ranges of
/// near-equal length (empty ranges are not produced).
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let per = chunk_len(len, threads);
    (0..len)
        .step_by(per)
        .map(|start| start..(start + per).min(len))
        .collect()
}

/// Work-item count from which the engines' *ambient* parallelism (no
/// explicit override anywhere) engages; below it, spawn overhead dominates
/// the per-item work of typical rounds/phases. Explicit overrides —
/// per-instance `set_threads` or the process-wide [`set_threads`] — are
/// always honored regardless of size.
pub const AMBIENT_MIN_ITEMS: usize = 32;

/// Resolves the worker count for a region of `items` independent work
/// items: an explicit override (`per_instance`, else the process-wide
/// [`set_threads`]) is honored as given (capped at one worker per item);
/// the ambient default ([`default_threads`]) engages only from `min_items`
/// items up, so small regions skip the spawn overhead entirely.
pub fn workers(per_instance: Option<usize>, items: usize, min_items: usize) -> usize {
    match per_instance.or_else(threads_override) {
        Some(t) => t.min(items.max(1)),
        None if items >= min_items => default_threads().min(items),
        None => 1,
    }
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
    map_with(len, threads, || (), |i, ()| f(i))
}

/// [`map`] with per-worker scratch state: `init` runs once on each worker
/// (and once on the calling thread in the serial case), and `f` receives
/// `&mut` access to its worker's scratch — so a reusable buffer is
/// allocated per *worker*, not per item.
///
/// A panic in `f` propagates to the caller.
pub fn map_with<T, S, I, F>(len: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if threads <= 1 || len <= 1 {
        let mut scratch = init();
        return (0..len).map(|i| f(i, &mut scratch)).collect();
    }
    let ranges = chunk_ranges(len, threads);
    let mut out = Vec::with_capacity(len);
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let (init, f) = (&init, &f);
                s.spawn(move || {
                    let mut scratch = init();
                    range.map(|i| f(i, &mut scratch)).collect::<Vec<T>>()
                })
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

/// Runs `f(index, &mut item)` for every item of the slice, splitting the
/// slice into contiguous chunks across up to `threads` scoped workers. The
/// disjointness of the chunks is what makes this safe without locks; with
/// `threads <= 1` it is a plain serial loop.
pub fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let per = chunk_len(items.len(), threads);
    std::thread::scope(|s| {
        for (ci, chunk) in items.chunks_mut(per).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, item) in chunk.iter_mut().enumerate() {
                    f(ci * per + j, item);
                }
            });
        }
    });
}

/// Runs `f(index, &mut a[index], &mut b[index])` over two equally long
/// slices, chunked like [`for_each_mut`]. The round engine uses this to
/// step each player's algorithm and fill its outbox concurrently.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn for_each_zip_mut<A, B, F>(a: &mut [A], b: &mut [B], threads: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut A, &mut B) + Sync,
{
    assert_eq!(a.len(), b.len(), "zip over unequal lengths");
    if threads <= 1 || a.len() <= 1 {
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            f(i, x, y);
        }
        return;
    }
    let per = chunk_len(a.len(), threads);
    std::thread::scope(|s| {
        for (ci, (ca, cb)) in a.chunks_mut(per).zip(b.chunks_mut(per)).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (j, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                    f(ci * per + j, x, y);
                }
            });
        }
    });
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

    #[test]
    fn for_each_mut_touches_every_slot_once() {
        for t in [1usize, 3, 5, 32] {
            let mut items = vec![0usize; 23];
            for_each_mut(&mut items, t, |i, slot| *slot += i + 1);
            let expected: Vec<usize> = (1..=23).collect();
            assert_eq!(items, expected, "threads={t}");
        }
    }

    #[test]
    fn for_each_zip_mut_pairs_slots_by_index() {
        for t in [1usize, 2, 7] {
            let mut a = vec![0usize; 11];
            let mut b: Vec<usize> = (0..11).collect();
            for_each_zip_mut(&mut a, &mut b, t, |i, x, y| {
                *x = i + *y;
                *y = 0;
            });
            assert_eq!(a, (0..11).map(|i| 2 * i).collect::<Vec<_>>());
            assert!(b.iter().all(|&y| y == 0));
        }
    }

    #[test]
    fn map_with_reuses_scratch_per_worker() {
        for t in [1usize, 2, 4] {
            let got = map_with(20, t, Vec::new, |i, scratch: &mut Vec<usize>| {
                scratch.push(i);
                // Scratch is worker-local and grows monotonically, so its
                // last element is always the current index.
                (*scratch.last().unwrap(), scratch.len())
            });
            for (i, &(idx, len)) in got.iter().enumerate() {
                assert_eq!(idx, i, "threads={t}");
                assert!(len >= 1 && len <= i + 1, "threads={t}");
            }
        }
    }

    /// The single test that touches the process-wide `OVERRIDE` atomic —
    /// kept as one `#[test]` on purpose: cargo runs tests of a binary
    /// concurrently, so two tests mutating the global would race.
    #[test]
    fn global_override_and_workers_resolution() {
        // Explicit per-instance override: honored (capped per item), at
        // any size, regardless of the global.
        assert_eq!(workers(Some(8), 3, AMBIENT_MIN_ITEMS), 3);
        assert_eq!(workers(Some(2), 100, AMBIENT_MIN_ITEMS), 2);
        assert_eq!(workers(Some(4), 0, AMBIENT_MIN_ITEMS), 1);

        let saved = threads_override();
        // Round trip and clamping of the global override.
        set_threads(Some(3));
        assert_eq!(threads_override(), Some(3));
        assert_eq!(threads(), 3);
        set_threads(Some(0));
        assert_eq!(threads_override(), Some(1), "0 clamps to 1");
        // Process-wide override: honored by `workers` at any size.
        set_threads(Some(5));
        assert_eq!(workers(None, 6, AMBIENT_MIN_ITEMS), 5);
        // Ambient default: gated below min_items.
        set_threads(None);
        assert_eq!(threads_override(), None);
        assert!(threads() >= 1);
        assert_eq!(workers(None, AMBIENT_MIN_ITEMS - 1, AMBIENT_MIN_ITEMS), 1);
        assert!(workers(None, AMBIENT_MIN_ITEMS, AMBIENT_MIN_ITEMS) >= 1);
        set_threads(saved);
    }
}
