//! Chunk-parallel scaffold for the sample-scan kernels.
//!
//! PR 1 parallelized the pipeline *across* stages; the remaining hot loops
//! iterate over one big slice (the flow log) doing
//! independent per-element work. This module is the small harness those
//! kernels share: split the slice into contiguous chunks, run one chunk per
//! scoped worker thread ([`std::thread::scope`] — no extra dependency), and
//! return the per-chunk partial results **in chunk order**.
//!
//! The ordered merge is what makes the kernels deterministic: chunk
//! boundaries change with the worker count, but concatenating per-chunk
//! outputs in chunk order is order-preserving over the input slice, so any
//! worker count produces byte-identical results (pinned by the
//! `determinism` integration test). Kernels that index into the original
//! slice receive each chunk's start offset alongside the chunk.
//!
//! # Example
//!
//! ```
//! use rtbh_core::shard::map_chunks;
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let partial_sums = map_chunks(&items, 4, |_, chunk| chunk.iter().sum::<u64>());
//! assert_eq!(partial_sums.iter().sum::<u64>(), items.iter().sum::<u64>());
//! ```

/// Resolves a requested worker count: `0` means "one per available core".
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Near-equal contiguous `(start, end)` chunk bounds covering `0..len`.
///
/// Returns at most `chunks` non-empty ranges (fewer when `len < chunks`);
/// empty input yields a single empty range so every kernel still produces
/// one (empty) partial result.
pub fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1).min(len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Maps `f` over contiguous chunks of `items` on up to `workers` scoped
/// threads and returns the per-chunk results in chunk order.
///
/// `f` receives `(start_offset, chunk)` where `chunk == &items[start..end]`,
/// so kernels can reconstruct global element indices. With one worker (or a
/// single-element slice) `f` runs inline on the calling thread — no spawn
/// overhead on the sequential path.
pub fn map_chunks<T, R>(items: &[T], workers: usize, f: impl Fn(usize, &[T]) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let bounds = chunk_bounds(items.len(), workers);
    if bounds.len() == 1 {
        let (start, end) = bounds[0];
        return vec![f(start, &items[start..end])];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|(start, end)| {
                let f = &f;
                s.spawn(move || f(start, &items[start..end]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel chunk panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_workers_auto_and_explicit() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for (len, chunks) in [
            (0, 4),
            (1, 4),
            (10, 3),
            (10, 1),
            (10, 10),
            (10, 99),
            (1000, 7),
        ] {
            let bounds = chunk_bounds(len, chunks);
            assert!(!bounds.is_empty());
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds.last().unwrap().1, len);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap/overlap at len={len} chunks={chunks}");
            }
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn map_chunks_preserves_order_for_any_worker_count() {
        let items: Vec<u32> = (0..997).collect();
        let reference: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 8, 64] {
            let merged: Vec<u32> = map_chunks(&items, workers, |_, chunk| {
                chunk.iter().map(|x| x * 3).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(merged, reference, "{workers} workers broke ordering");
        }
    }

    #[test]
    fn map_chunks_offsets_are_global_indices() {
        let items: Vec<u8> = vec![0; 100];
        let offsets: Vec<Vec<usize>> = map_chunks(&items, 7, |start, chunk| {
            (start..start + chunk.len()).collect()
        });
        let flat: Vec<usize> = offsets.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_on_empty_input_yields_one_empty_chunk() {
        let items: Vec<u8> = Vec::new();
        let out = map_chunks(&items, 4, |start, chunk| (start, chunk.len()));
        assert_eq!(out, vec![(0, 0)]);
    }
}
