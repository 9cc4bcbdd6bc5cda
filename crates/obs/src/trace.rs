//! Request-scoped tracing: a per-request span tree collected into a
//! lock-free bounded ring, plus live progress counters the solver
//! loops publish at their existing budget-poll points.
//!
//! It answers the per-request questions a latency histogram cannot:
//! "where did *this* query spend its time" (the span tree) and "how far
//! along is that 30-second run" (the [`Progress`] counters). A
//! [`TraceCtx`] is created by the serving layer per traced request and
//! threaded through the engine inside the budget; everything here is
//! observational — no trace state ever feeds a fingerprint, a
//! memoization key, or a persisted byte.
//!
//! # Concurrency
//!
//! * [`Progress`] counters are relaxed atomics behind `Arc`s, so
//!   solver crates with no dependency on this crate can hold a plain
//!   `Arc<AtomicU64>` handle (the same shape as their cancellation
//!   flags) and publish with one relaxed store per budget poll.
//! * [`SpanRing`] is a bounded multi-producer collector built on
//!   per-slot seqlocks (the crossbeam recipe: odd sequence while a
//!   write is in flight, ticket-unique even value once complete).
//!   Pushing never blocks and never allocates; when the ring is full
//!   the oldest record is overwritten and counted in
//!   [`SpanRing::dropped`]. Readers validate the sequence around each
//!   slot copy, so a torn record is skipped, never observed.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Live progress counters for one request, published by the solver
/// loops at their existing budget-check points and polled by the
/// `inflight` stats block. Each counter is an `Arc<AtomicU64>` so it
/// can be handed to solver crates as a bare handle; cloning a
/// `Progress` clones the handles, not the counts.
#[derive(Clone, Debug, Default)]
pub struct Progress {
    /// SMC Bernoulli samples drawn so far.
    pub samples: Arc<AtomicU64>,
    /// Runge–Kutta integration steps taken across all drawn samples.
    pub rk_steps: Arc<AtomicU64>,
    /// ICP frontier boxes processed (branch-and-prune work unit).
    pub boxes: Arc<AtomicU64>,
    /// BMC unrolling depth currently being solved.
    pub depth: Arc<AtomicU64>,
    /// CDCL conflicts observed by the SAT core.
    pub conflicts: Arc<AtomicU64>,
    /// CDCL restarts performed by the SAT core.
    pub restarts: Arc<AtomicU64>,
}

impl Progress {
    /// A relaxed point-in-time copy of all counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            samples: self.samples.load(Ordering::Relaxed),
            rk_steps: self.rk_steps.load(Ordering::Relaxed),
            boxes: self.boxes.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a request's [`Progress`] counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// SMC Bernoulli samples drawn.
    pub samples: u64,
    /// Runge–Kutta integration steps taken.
    pub rk_steps: u64,
    /// ICP frontier boxes processed.
    pub boxes: u64,
    /// BMC unrolling depth reached.
    pub depth: u64,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL restarts.
    pub restarts: u64,
}

impl ProgressSnapshot {
    /// `(name, value)` pairs in a fixed order, for serialization.
    pub fn pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("samples", self.samples),
            ("rk_steps", self.rk_steps),
            ("boxes", self.boxes),
            ("depth", self.depth),
            ("conflicts", self.conflicts),
            ("restarts", self.restarts),
        ]
    }
}

/// One completed span: an interval of request-relative time with an
/// id/parent link into the request's span tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the request, starting at 1.
    pub id: u32,
    /// Parent span id; 0 for a root span.
    pub parent: u32,
    /// Static phase name (e.g. `"engine.query"`).
    pub name: &'static str,
    /// Start offset from the request's trace epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the request's trace epoch, nanoseconds.
    pub end_ns: u64,
}

/// One ring slot. All record fields are atomics so racing writers can
/// never data-race in the language sense; the seqlock detects (and the
/// reader discards) any cross-field tearing.
struct Slot {
    /// Seqlock state: `2*ticket + 1` while the writer for `ticket` is
    /// copying fields in, `2*ticket + 2` once its record is complete.
    seq: AtomicU64,
    /// `id` in the high 32 bits, `parent` in the low 32.
    id_parent: AtomicU64,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

/// A lock-free bounded collector of completed [`SpanRecord`]s.
///
/// Capacity is fixed at construction; once full, each push overwrites
/// the oldest record (and [`dropped`](SpanRing::dropped) counts the
/// overwritten ones). Pushes are lock-free and allocation-free; under
/// pathological contention (a writer stalled mid-copy for a whole ring
/// lap) the incoming record is dropped rather than corrupting a newer
/// one, and that too is counted.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Total pushes attempted; `head % capacity` is the next slot.
    head: AtomicU64,
    /// Records lost to writer contention (never written at all).
    contended: AtomicU64,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` records (min 1).
    pub fn new(capacity: usize) -> SpanRing {
        let capacity = capacity.max(1);
        SpanRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    id_parent: AtomicU64::new(0),
                    name_ptr: AtomicUsize::new(0),
                    name_len: AtomicUsize::new(0),
                    start_ns: AtomicU64::new(0),
                    end_ns: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records pushed (including ones since overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records no longer readable: overwritten by newer pushes, plus
    /// the (pathological) contention drops.
    pub fn dropped(&self) -> u64 {
        let cap = self.slots.len() as u64;
        self.head.load(Ordering::Relaxed).saturating_sub(cap)
            + self.contended.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn push(&self, rec: SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Claim the slot: its sequence must be even (no writer active)
        // and belong to an *earlier* lap. A handful of retries covers
        // the realistic race (the previous occupant finishing its last
        // two stores); a writer stalled longer forfeits this record —
        // dropping is better than racing a newer lap for the slot.
        let claimed = (0..8).any(|_| {
            let seq = slot.seq.load(Ordering::Relaxed);
            seq.is_multiple_of(2)
                && seq <= 2 * ticket
                && slot
                    .seq
                    .compare_exchange(seq, 2 * ticket + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
        });
        if !claimed {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Order the odd sequence before the field stores: a reader that
        // observes any new field acquires the in-flight marker too.
        fence(Ordering::Release);
        slot.id_parent.store(
            (u64::from(rec.id) << 32) | u64::from(rec.parent),
            Ordering::Relaxed,
        );
        slot.name_ptr
            .store(rec.name.as_ptr() as usize, Ordering::Relaxed);
        slot.name_len.store(rec.name.len(), Ordering::Relaxed);
        slot.start_ns.store(rec.start_ns, Ordering::Relaxed);
        slot.end_ns.store(rec.end_ns, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Copies out every readable record, oldest first. Records being
    /// overwritten concurrently are skipped, never torn.
    pub fn records(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        for ticket in head.saturating_sub(cap)..head {
            let slot = &self.slots[(ticket % cap) as usize];
            // Accept only the completed record for exactly this ticket.
            if slot.seq.load(Ordering::Acquire) != 2 * ticket + 2 {
                continue;
            }
            let id_parent = slot.id_parent.load(Ordering::Relaxed);
            let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
            let name_len = slot.name_len.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != 2 * ticket + 2 {
                continue;
            }
            // SAFETY: the sequence was the ticket's completion value on
            // both sides of the field loads, so every field was stored
            // by the single writer that claimed this ticket (claims go
            // through a CAS, completion values are ticket-unique and
            // never restored by another writer). That writer stored
            // `as_ptr()`/`len()` of one live `&'static str`, so the
            // pair reconstructs the exact string it came from.
            let name = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    name_ptr as *const u8,
                    name_len,
                ))
            };
            out.push(SpanRecord {
                id: (id_parent >> 32) as u32,
                parent: id_parent as u32,
                name,
                start_ns,
                end_ns,
            });
        }
        out
    }
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Per-request trace context: the span collector, the progress
/// counters, and the request-relative clock they all share.
///
/// Created by the serving layer when a request is traced (or when the
/// daemon-wide trace hub is on) and threaded through the engine inside
/// the budget. Span *creation* follows the request's own control
/// thread — the parallel sample workers only bump counters — so the
/// implicit-parent nesting behaves like a stack; the ring itself
/// tolerates concurrent pushes regardless.
pub struct TraceCtx {
    epoch: Instant,
    next_id: AtomicU32,
    /// Innermost open span id (the implicit parent); 0 at top level.
    current: AtomicU32,
    /// Live progress counters for this request.
    pub progress: Progress,
    ring: SpanRing,
}

impl TraceCtx {
    /// Default span capacity per request.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// A fresh context whose clock starts now.
    pub fn new(capacity: usize) -> Arc<TraceCtx> {
        Arc::new(TraceCtx {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            progress: Progress::default(),
            ring: SpanRing::new(capacity),
        })
    }

    /// Nanoseconds since this context was created.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span. The record
    /// is pushed when the returned guard drops — including during a
    /// panic unwind, so a crashing solver leaves a *terminated* span,
    /// never a leaked one.
    pub fn span(self: &Arc<TraceCtx>, name: &'static str) -> TraceSpan {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        TraceSpan {
            ctx: Arc::clone(self),
            id,
            parent,
            name,
            start_ns: self.elapsed_ns(),
        }
    }

    /// Completed spans, oldest first (see [`SpanRing::records`]).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.ring.records()
    }

    /// Spans lost to ring overflow or contention.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("elapsed_ns", &self.elapsed_ns())
            .field("progress", &self.progress.snapshot())
            .field("ring", &self.ring)
            .finish()
    }
}

/// RAII guard for one open span; see [`TraceCtx::span`].
#[must_use = "a trace span times its enclosing scope; bind it to a local"]
pub struct TraceSpan {
    ctx: Arc<TraceCtx>,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.ctx.ring.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.ctx.elapsed_ns(),
        });
        // Restore the implicit parent for subsequent siblings.
        self.ctx.current.store(self.parent, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, start_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            name: "test.span",
            start_ns,
            end_ns: start_ns + 1,
        }
    }

    #[test]
    fn nested_spans_link_parents_and_close_in_order() {
        let ctx = TraceCtx::new(16);
        {
            let _outer = ctx.span("outer");
            {
                let _inner = ctx.span("inner");
            }
            let _sibling = ctx.span("sibling");
        }
        let records = ctx.records();
        assert_eq!(records.len(), 3);
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        let (outer, inner, sibling) = (by_name("outer"), by_name("inner"), by_name("sibling"));
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        for r in &records {
            assert!(r.end_ns >= r.start_ns);
            assert!(r.end_ns <= ctx.elapsed_ns());
        }
        assert_eq!(ctx.dropped(), 0);
    }

    #[test]
    fn panicking_scope_still_records_a_terminated_span() {
        let ctx = TraceCtx::new(16);
        let ctx2 = Arc::clone(&ctx);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _span = ctx2.span("doomed.solver");
            panic!("solver blew up");
        }));
        assert!(result.is_err());
        let records = ctx.records();
        assert_eq!(records.len(), 1, "unwind must close the span");
        assert_eq!(records[0].name, "doomed.solver");
        assert!(records[0].end_ns >= records[0].start_ns);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = SpanRing::new(4);
        for i in 0..10u32 {
            ring.push(rec(i, u64::from(i)));
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        let ids: Vec<u32> = ring.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "newest survive, oldest first");
    }

    #[test]
    fn concurrent_pushes_equal_serial_merge() {
        const THREADS: u32 = 8;
        const PER_THREAD: u32 = 100;
        let ring = Arc::new(SpanRing::new((THREADS * PER_THREAD) as usize));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        ring.push(rec(t * PER_THREAD + i, u64::from(i)));
                    }
                });
            }
        });
        assert_eq!(ring.pushed(), u64::from(THREADS * PER_THREAD));
        assert_eq!(ring.dropped(), 0, "capacity covers every push");
        let mut got: Vec<u32> = ring.records().iter().map(|r| r.id).collect();
        got.sort_unstable();
        let want: Vec<u32> = (0..THREADS * PER_THREAD).collect();
        assert_eq!(got, want, "contended recording == serial merge");
        for r in ring.records() {
            assert_eq!(r.name, "test.span", "no torn name survived");
            assert_eq!(r.end_ns, r.start_ns + 1);
        }
    }

    #[test]
    fn progress_snapshot_reflects_counter_stores() {
        let p = Progress::default();
        p.samples.store(120, Ordering::Relaxed);
        p.boxes.store(7, Ordering::Relaxed);
        let snap = p.snapshot();
        assert_eq!(snap.samples, 120);
        assert_eq!(snap.boxes, 7);
        assert_eq!(snap.conflicts, 0);
        let pairs = snap.pairs();
        assert_eq!(pairs[0], ("samples", 120));
        assert_eq!(pairs.len(), 6);
    }
}
