//! Deterministic parallel execution for the flow.
//!
//! Thin, flow-facing wrapper over [`techlib::par`] (the primitive lives at
//! the bottom of the crate graph so `si`, `interposer` and `thermal` can
//! use it too). Everything here preserves **input order** in outputs and
//! error selection, which is what makes parallel runs byte-identical to
//! sequential ones:
//!
//! * [`ordered_map`] — fan a slice out across scoped threads, results in
//!   input order;
//! * [`try_ordered_map`] — same for fallible tasks; when several fail, the
//!   error reported is the *first failing input's* error, exactly as a
//!   sequential loop would report (later tasks' work is discarded);
//! * [`join`] — run two closures concurrently, results in argument order.
//!
//! Thread count is controlled by the `CODESIGN_THREADS` environment
//! variable (see [`THREADS_ENV`]); `CODESIGN_THREADS=1` degenerates every
//! helper to a plain in-order loop on the calling thread.

pub use techlib::par::{join, ordered_map, ordered_map_with, thread_count, THREADS_ENV};

/// Applies a fallible `f` to every item in parallel. On success returns
/// the results in input order; on failure returns the error belonging to
/// the earliest failing input — matching what a sequential
/// `items.iter().map(f).collect::<Result<_, _>>()` reports, so error
/// behaviour is deterministic too.
///
/// Unlike the sequential collect, items after a failing one *are* still
/// evaluated (they may already be running on other workers); their
/// results are dropped.
///
/// # Errors
///
/// The first (by input order) error produced by `f`.
pub fn try_ordered_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    ordered_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_ordered_map_keeps_order() {
        let items: Vec<u32> = (0..20).collect();
        let out: Result<Vec<u32>, ()> = try_ordered_map(&items, |&i| Ok(i * 2));
        assert_eq!(out.unwrap(), (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_ordered_map_reports_first_failing_input() {
        let items: Vec<u32> = (0..20).collect();
        // Items 7 and 3 both fail; input order means 3 wins, regardless
        // of completion order.
        let out: Result<Vec<u32>, u32> =
            try_ordered_map(&items, |&i| if i == 7 || i == 3 { Err(i) } else { Ok(i) });
        assert_eq!(out.unwrap_err(), 3);
    }
}
