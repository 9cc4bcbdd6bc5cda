//! Query-long lane streams.
//!
//! A [`LaneStream`] runs one SMC query from its first sample to its
//! decision. The lanes of every sampler claim the next sample index as
//! they free up, until the query's rule stops them; finished samples
//! reach the rule in index order through a small reorder buffer, so the
//! rule sees exactly the sequence a one-sample-at-a-time loop would feed
//! it. Nothing drains between samples: a lane whose sample ends is
//! refilled at the next step boundary, for as long as the query runs.
//!
//! The stream stops claiming when the rule decides, when its sample
//! limit is claimed, or when its poll (a budget's cancellation flag or
//! deadline, asked at every claim) reports an interruption. A decided or
//! interrupted stream is *halted*: in-flight lanes stop at their next
//! accepted step and their samples are discarded, so the rule has
//! consumed a gap-free prefix `0..consumed` of the per-index streams.
//! Sample `i` is a pure function of `(seed, i)` ([`fork_rng`](crate::fork_rng)),
//! so whatever the thread count and whichever lane ran which index, the
//! rule's input — hence every estimate and verdict — is the sequential
//! one.
//!
//! An *adaptive* rule (SPRT, Bayesian estimation) may stop long before
//! the limit. Its stream keeps claims within `samplers × LANES` indices
//! of the rule, so no query simulates more than that many samples past
//! its decision; a lane that would claim further idles until the rule
//! catches up.

use crate::sampler::{range_draw, with_scratch, Claim, SampleOutcome, SampleStats, Source};
use crate::{TraceSampler, LANES};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Indices per sampler a parallel run recruits: four lane fills, so a
/// sampler's lanes are refilled many times over before the query ends.
const LEAF_MIN: usize = 4 * LANES;

/// Samplers of every [`LaneStream::run`] in the process, callers
/// included. A run recruits pool helpers only while this stays below the
/// pool width, so concurrent queries (a daemon running several at once)
/// never put more samplers than pool threads on the cores: each runs on
/// its own caller, and a query that runs alone gets the whole pool.
static SAMPLERS: AtomicUsize = AtomicUsize::new(0);

/// Sampler places a run holds in [`SAMPLERS`], released on drop (also
/// when a sample panics).
struct Reserved(usize);

impl Drop for Reserved {
    fn drop(&mut self) {
        SAMPLERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Reserves the caller plus up to one helper per further [`LEAF_MIN`]
/// samples, as far as the pool has threads no other run is sampling on.
fn reserve(limit: usize) -> Reserved {
    let width = rayon::current_num_threads().max(1);
    let wanted = limit.div_ceil(LEAF_MIN).saturating_sub(1);
    let mut running = SAMPLERS.load(Ordering::Relaxed);
    loop {
        let helpers = wanted.min(width.saturating_sub(running + 1));
        match SAMPLERS.compare_exchange_weak(
            running,
            running + 1 + helpers,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Reserved(1 + helpers),
            Err(now) => running = now,
        }
    }
}

/// One query's samples, from the first to the rule's decision; see the
/// module docs. Build one with [`TraceSampler::stats_stream`] or
/// [`TraceSampler::robustness_stream`], then [`LaneStream::run`] it (or
/// have several threads [`LaneStream::join`] it).
pub struct LaneStream<'a, O, R> {
    sampler: &'a TraceSampler,
    seed: u64,
    limit: usize,
    adaptive: bool,
    poll: Option<&'a (dyn Fn() -> bool + Sync)>,
    /// Set once the rule decides or the poll interrupts; read by every
    /// lane at every accepted step, so kept outside the lock. It
    /// publishes no data: `put` reads it again under the lock before a
    /// sample can reach the rule, so `Relaxed` suffices.
    halted: AtomicBool,
    order: Mutex<Order<O, R>>,
    /// Signalled when the rule moves on or the stream halts, for
    /// samplers whose every lane waits for the window to open.
    moved: Condvar,
}

/// The claim cursor, the reorder buffer and the rule it feeds.
struct Order<O, R> {
    /// The next unclaimed index.
    next: usize,
    /// Finished samples not yet consumed: sample `i` sits at
    /// `i % ring.len()`, for `consumed <= i < consumed + ring.len()`.
    ring: Vec<Option<O>>,
    consumed: usize,
    samplers: usize,
    /// Samplers waiting on `moved`.
    waiting: usize,
    rule: R,
}

impl<O, R> Order<O, R> {
    /// Parks finished sample `index`, growing the ring when the sample
    /// is further ahead of the rule than the ring reaches.
    fn place(&mut self, index: usize, outcome: O) {
        let ahead = index - self.consumed;
        if ahead >= self.ring.len() {
            let len = (ahead + 1).max(2 * LANES).next_power_of_two();
            let mut ring: Vec<Option<O>> = std::iter::repeat_with(|| None).take(len).collect();
            let old = self.ring.len();
            for i in self.consumed..self.consumed + old {
                ring[i % len] = self.ring[i % old].take();
            }
            self.ring = ring;
        }
        let len = self.ring.len();
        self.ring[index % len] = Some(outcome);
    }

    /// The next sample in index order, if it has finished.
    fn pop(&mut self) -> Option<O> {
        let len = self.ring.len();
        let outcome = self.ring.get_mut(self.consumed % len.max(1))?.take()?;
        self.consumed += 1;
        Some(outcome)
    }

    /// Whether an adaptive stream's claims have run `samplers × LANES`
    /// indices ahead of its rule.
    fn window_full(&self) -> bool {
        self.next >= self.consumed + self.samplers.max(1) * LANES
    }
}

impl TraceSampler {
    /// A stream of the fused, instrumented Boolean samples
    /// `0..limit` of the seeded per-index streams (sample `i` is
    /// [`TraceSampler::sample_stats_with`] on
    /// [`fork_rng`](crate::fork_rng)`(seed, i)`). `rule` receives them in
    /// index order and returns `true` once it has decided.
    pub fn stats_stream<R>(
        &self,
        seed: u64,
        limit: usize,
        rule: R,
    ) -> LaneStream<'_, SampleStats, R>
    where
        R: FnMut(SampleStats) -> bool + Send,
    {
        LaneStream::new(self, seed, limit, rule)
    }

    /// The `(satisfied, robustness)` twin of
    /// [`TraceSampler::stats_stream`].
    pub fn robustness_stream<R>(
        &self,
        seed: u64,
        limit: usize,
        rule: R,
    ) -> LaneStream<'_, (bool, f64), R>
    where
        R: FnMut((bool, f64)) -> bool + Send,
    {
        LaneStream::new(self, seed, limit, rule)
    }
}

impl<'a, O, R> LaneStream<'a, O, R>
where
    O: SampleOutcome,
    R: FnMut(O) -> bool + Send,
{
    fn new(sampler: &'a TraceSampler, seed: u64, limit: usize, rule: R) -> LaneStream<'a, O, R> {
        LaneStream {
            sampler,
            seed,
            limit,
            adaptive: false,
            poll: None,
            halted: AtomicBool::new(false),
            order: Mutex::new(Order {
                next: 0,
                ring: Vec::new(),
                consumed: 0,
                samplers: 0,
                waiting: 0,
                rule,
            }),
            moved: Condvar::new(),
        }
    }

    /// Marks the rule as one that may decide before the limit: claims
    /// then stay within `samplers × LANES` indices of it.
    #[must_use]
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Asks `poll` before every claim; once it returns `true` the stream
    /// halts.
    #[must_use]
    pub fn until(mut self, poll: &'a (dyn Fn() -> bool + Sync)) -> Self {
        self.poll = Some(poll);
        self
    }

    /// Runs the stream to its end on the calling thread, joined in
    /// parallel mode by as many pool helpers as the query's size and the
    /// idle pool threads allow ([`rayon::in_place_scope`]). The caller
    /// samples at once; a helper that starts late finds fewer indices
    /// left, and one that starts after the end finds none.
    pub fn run(&self, parallel: bool) {
        if !parallel {
            return self.join();
        }
        let reserved = reserve(self.limit);
        rayon::in_place_scope(|scope| {
            for _ in 1..reserved.0 {
                scope.spawn(|_| self.join());
            }
            self.join();
        });
    }

    /// Samples on the calling thread, [`LANES`] lanes through a pooled
    /// scratch, until the stream ends. Any number of threads may join
    /// one stream; together they hand the rule the same samples as one.
    /// A sampler that panics halts the stream on its way out, so no
    /// other sampler waits for the samples its lanes held.
    pub fn join(&self) {
        struct HaltOnPanic<'s, 'a, O: SampleOutcome, R: FnMut(O) -> bool + Send>(
            &'s LaneStream<'a, O, R>,
        );
        impl<O: SampleOutcome, R: FnMut(O) -> bool + Send> Drop for HaltOnPanic<'_, '_, O, R> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.halt(&self.0.lock());
                }
            }
        }
        let _halt = HaltOnPanic(self);
        self.lock().samplers += 1;
        let mut source = self;
        with_scratch(|scratch| loop {
            let draw = range_draw(self.seed);
            self.sampler
                .fuse_any(scratch, draw, &mut source, self.limit);
            if !self.wait_for_window() {
                break;
            }
        });
    }

    /// Indices claimed by lanes so far, finished, in flight or discarded.
    pub fn claimed(&self) -> usize {
        self.lock().next
    }

    /// Samples the rule has consumed: the prefix `0..consumed()`.
    pub fn consumed(&self) -> usize {
        self.lock().consumed
    }

    /// Samplers that have joined the stream.
    pub fn samplers(&self) -> usize {
        self.lock().samplers
    }

    /// Every update under the lock leaves the cursor and the ring
    /// valid. A rule that panics fails the whole query through the
    /// scope that joined its samplers, so a poisoned lock is recovered
    /// rather than replacing that panic with a second one.
    fn lock(&self) -> MutexGuard<'_, Order<O, R>> {
        self.order.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether nothing is left to claim, for good.
    fn ended(&self, order: &Order<O, R>) -> bool {
        self.halted.load(Ordering::Relaxed) || order.next >= self.limit
    }

    /// Stops all claims and in-flight lanes, and wakes waiting samplers.
    fn halt(&self, order: &Order<O, R>) {
        self.halted.store(true, Ordering::Relaxed);
        if order.waiting > 0 {
            self.moved.notify_all();
        }
    }

    /// Called when this sampler has no live lane: `false` when the
    /// stream has ended, `true` once the window has room again (after
    /// waiting for the rule to move on, if it has none).
    fn wait_for_window(&self) -> bool {
        let mut order = self.lock();
        order.waiting += 1;
        while !self.ended(&order) && order.window_full() {
            order = self
                .moved
                .wait(order)
                .unwrap_or_else(PoisonError::into_inner);
        }
        order.waiting -= 1;
        !self.ended(&order)
    }
}

impl<O, R> Source<O> for &LaneStream<'_, O, R>
where
    O: SampleOutcome,
    R: FnMut(O) -> bool + Send,
{
    fn claim(&mut self) -> Claim {
        let mut order = self.lock();
        if self.ended(&order) {
            Claim::Done
        } else if self.adaptive && order.window_full() {
            Claim::Later
        } else if self.poll.is_some_and(|poll| poll()) {
            self.halt(&order);
            Claim::Done
        } else {
            order.next += 1;
            Claim::Index(order.next - 1)
        }
    }

    fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    fn put(&mut self, index: usize, outcome: O) {
        let mut order = self.lock();
        if self.halted.load(Ordering::Relaxed) {
            return;
        }
        order.place(index, outcome);
        let before = order.consumed;
        while let Some(outcome) = order.pop() {
            if (order.rule)(outcome) {
                self.halt(&order);
                return;
            }
        }
        if order.consumed > before && order.waiting > 0 {
            self.moved.notify_all();
        }
    }
}
