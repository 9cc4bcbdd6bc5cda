//! Fair FIFO admission control with load shedding.
//!
//! The engine parallelizes *inside* a query over the global
//! thread pool, so running every incoming request concurrently
//! would oversubscribe the pool and let late arrivals race ahead of
//! early ones. The [`Scheduler`] multiplexes instead: callers wait in
//! [`Scheduler::admit`] and are admitted strictly in arrival order
//! (ticket-based), at most `capacity` at a time. Each admitted request
//! then samples on its own thread plus whatever pool threads no other
//! request is sampling on when its query starts
//! (`biocheck_smc::LaneStream::run`), so concurrent requests share the
//! cores without oversubscribing them.
//!
//! Unlike a plain FIFO gate the queue is **bounded**: when `max_queue`
//! callers are already waiting, further arrivals are shed immediately
//! with [`AdmitError::Overloaded`] (carrying a retry-after hint)
//! instead of growing the queue without limit. Waiters can also leave
//! the queue early — on a per-request queue deadline, on a raised
//! cancellation flag, or when the scheduler starts draining for
//! shutdown — without wedging the FIFO order: abandoned tickets are
//! recorded and skipped when the admission cursor reaches them.
//!
//! Determinism: admission order affects only *when* a query runs, never
//! its result — every engine query is bit-deterministic in
//! `(model, query, seed, count-budget)` at any pool width — so the
//! scheduler needs no result-ordering machinery, just fairness.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why [`Scheduler::admit`] refused (or stopped waiting for) a slot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdmitError {
    /// The wait queue is full; the request was shed without queueing.
    /// `retry_after_ms` is a backoff hint scaled to the current backlog.
    Overloaded {
        /// Queue length observed at shed time.
        queue_depth: usize,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The per-request queue deadline elapsed before a slot freed up.
    Expired {
        /// How long the request waited before expiring.
        waited: Duration,
    },
    /// The request's cancellation flag was raised while queued.
    Cancelled,
    /// The scheduler is draining: no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "server overloaded ({queue_depth} queued); retry in {retry_after_ms} ms"
            ),
            AdmitError::Expired { waited } => {
                write!(f, "queue deadline expired after {} ms", waited.as_millis())
            }
            AdmitError::Cancelled => write!(f, "cancelled while queued"),
            AdmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Waiting-room conditions for one [`Scheduler::admit`] call.
#[derive(Default)]
pub struct AdmitWait<'a> {
    /// Give up with [`AdmitError::Expired`] after waiting this long.
    pub deadline: Option<Duration>,
    /// Give up with [`AdmitError::Cancelled`] once this flag is raised.
    pub cancel: Option<&'a AtomicBool>,
}

struct State {
    /// Next ticket to hand out.
    next_ticket: u64,
    /// The ticket allowed to enter next (tickets below it have entered
    /// or been abandoned).
    next_to_admit: u64,
    /// Currently admitted requests.
    running: usize,
    /// Tickets handed out but not yet admitted or abandoned.
    queued: usize,
    /// Tickets whose holder left the queue (deadline, cancel, drain);
    /// the admission cursor skips over them.
    abandoned: HashSet<u64>,
    /// Set by [`Scheduler::drain`]: refuse new work, let in-flight
    /// requests finish.
    draining: bool,
}

/// A FIFO admission gate with bounded concurrency and a bounded queue.
pub struct Scheduler {
    capacity: usize,
    max_queue: usize,
    state: Mutex<State>,
    cv: Condvar,
    shed: AtomicU64,
    expired: AtomicU64,
    queue_high_water: AtomicU64,
}

/// Mutex recovery: scheduler state is only ever mutated under the lock
/// by panic-free arithmetic, so a poisoned mutex (a panic elsewhere in
/// a holder's unwind path) leaves consistent state behind — keep going.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Scheduler {
    /// Creates a scheduler admitting at most `capacity` requests at a
    /// time (clamped to ≥ 1), with a wait queue of `8 * capacity`.
    pub fn new(capacity: usize) -> Scheduler {
        let capacity = capacity.max(1);
        Scheduler::with_queue(capacity, 8 * capacity)
    }

    /// Creates a scheduler with an explicit queue bound (both clamped
    /// to ≥ 1).
    pub fn with_queue(capacity: usize, max_queue: usize) -> Scheduler {
        Scheduler {
            capacity: capacity.max(1),
            max_queue: max_queue.max(1),
            state: Mutex::new(State {
                next_ticket: 0,
                next_to_admit: 0,
                running: 0,
                queued: 0,
                abandoned: HashSet::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
        }
    }

    /// The concurrency bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The wait-queue bound.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Requests currently admitted (racy snapshot, for stats).
    pub fn in_flight(&self) -> usize {
        relock(self.state.lock()).running
    }

    /// Requests currently waiting for a slot (racy snapshot, for stats).
    pub fn queue_depth(&self) -> usize {
        relock(self.state.lock()).queued
    }

    /// Deepest the wait queue has ever been since startup. Read
    /// together with [`Scheduler::max_queue`]: a high-water mark at the
    /// bound means the daemon has shed load at least once.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water.load(Ordering::Relaxed)
    }

    /// Requests shed with [`AdmitError::Overloaded`] since startup.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests that left the queue via [`AdmitError::Expired`].
    pub fn expired_count(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Stops admitting new work (current and future `admit` calls fail
    /// with [`AdmitError::ShuttingDown`]) and returns once every
    /// already-admitted request has released its [`Permit`].
    pub fn drain(&self) {
        let mut state = relock(self.state.lock());
        state.draining = true;
        self.cv.notify_all();
        while state.running > 0 {
            state = relock(self.cv.wait(state));
        }
    }

    /// Whether [`Scheduler::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        relock(self.state.lock()).draining
    }

    /// Waits until this caller is at the front of the queue AND a
    /// concurrency slot is free, then enters. The returned [`Permit`]
    /// releases the slot on drop.
    ///
    /// Refuses immediately when the queue is full ([`AdmitError::Overloaded`])
    /// or the scheduler is draining; stops waiting when `wait.deadline`
    /// elapses or `wait.cancel` is raised.
    pub fn admit(&self, wait: AdmitWait<'_>) -> Result<Permit<'_>, AdmitError> {
        let start = Instant::now();
        let mut state = relock(self.state.lock());
        if state.draining {
            return Err(AdmitError::ShuttingDown);
        }
        if wait.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Err(AdmitError::Cancelled);
        }
        if state.queued >= self.max_queue {
            let queue_depth = state.queued;
            drop(state);
            self.shed.fetch_add(1, Ordering::Relaxed);
            // Backoff hint scaled to backlog: a full queue of N behind a
            // capacity of C suggests roughly N/C service periods of wait.
            let retry_after_ms =
                ((queue_depth as u64 * 50) / self.capacity as u64).clamp(50, 5_000);
            return Err(AdmitError::Overloaded {
                queue_depth,
                retry_after_ms,
            });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queued += 1;
        self.queue_high_water
            .fetch_max(state.queued as u64, Ordering::Relaxed);
        loop {
            // Advance the cursor past tickets whose holders gave up.
            loop {
                let cursor = state.next_to_admit;
                if !state.abandoned.remove(&cursor) {
                    break;
                }
                state.next_to_admit += 1;
            }
            if state.next_to_admit == ticket && state.running < self.capacity {
                state.next_to_admit += 1;
                state.queued -= 1;
                state.running += 1;
                drop(state);
                // Wake the next ticket holder: with capacity > 1 it may
                // be admissible immediately.
                self.cv.notify_all();
                return Ok(Permit { scheduler: self });
            }
            let leave = if state.draining {
                Some(AdmitError::ShuttingDown)
            } else if wait.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                Some(AdmitError::Cancelled)
            } else if wait.deadline.is_some_and(|d| start.elapsed() >= d) {
                self.expired.fetch_add(1, Ordering::Relaxed);
                Some(AdmitError::Expired {
                    waited: start.elapsed(),
                })
            } else {
                None
            };
            if let Some(err) = leave {
                state.queued -= 1;
                if state.next_to_admit == ticket {
                    state.next_to_admit += 1;
                } else {
                    state.abandoned.insert(ticket);
                }
                drop(state);
                self.cv.notify_all();
                return Err(err);
            }
            // Cancellation raises a flag without touching our condvar,
            // so cap the sleep when either early-exit condition needs
            // polling; plain waiters sleep until notified.
            let poll = match (wait.deadline, wait.cancel) {
                (None, None) => None,
                (Some(d), None) => Some(d.saturating_sub(start.elapsed())),
                _ => Some(Duration::from_millis(10)),
            };
            state = match poll {
                None => relock(self.cv.wait(state)),
                Some(timeout) => {
                    let timeout = timeout.max(Duration::from_millis(1));
                    match self.cv.wait_timeout(state, timeout) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
        }
    }
}

/// An admitted execution slot; dropping it releases the slot and wakes
/// the queue.
#[must_use = "the permit IS the execution slot"]
pub struct Permit<'a> {
    scheduler: &'a Scheduler,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = relock(self.scheduler.state.lock());
        state.running -= 1;
        drop(state);
        self.scheduler.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn admit(s: &Scheduler) -> Permit<'_> {
        s.admit(AdmitWait::default()).expect("admission failed")
    }

    #[test]
    fn capacity_bounds_concurrency() {
        let sched = Arc::new(Scheduler::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (sched, peak, live) = (sched.clone(), peak.clone(), live.clone());
                std::thread::spawn(move || {
                    let _permit = admit(&sched);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "capacity exceeded");
        assert_eq!(sched.in_flight(), 0);
    }

    #[test]
    fn admission_is_fifo_at_capacity_one() {
        // Thread i takes ticket i (handshake-ordered), so admissions
        // must complete in exactly that order.
        let sched = Arc::new(Scheduler::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = admit(&sched); // hold the slot so everyone queues
        let ready = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (sched, order, ready2) = (sched.clone(), order.clone(), ready.clone());
                let h = std::thread::spawn(move || {
                    ready2.wait(); // ticket order == spawn order
                    let _permit = admit(&sched);
                    order.lock().unwrap().push(i);
                });
                // Wait until the thread is about to take its ticket,
                // then give it time to actually take it before spawning
                // the next one. (Ticket draw races are sub-microsecond;
                // the barrier + sleep makes the order reliable.)
                ready.wait();
                std::thread::sleep(std::time::Duration::from_millis(5));
                h
            })
            .collect();
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn full_queue_sheds_with_retry_hint() {
        let sched = Arc::new(Scheduler::with_queue(1, 2));
        let gate = admit(&sched);
        // Two waiters fill the queue.
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let sched = sched.clone();
                std::thread::spawn(move || {
                    let _p = admit(&sched);
                })
            })
            .collect();
        while sched.queue_depth() < 2 {
            std::thread::yield_now();
        }
        // The third arrival is shed immediately.
        match sched.admit(AdmitWait::default()) {
            Err(AdmitError::Overloaded {
                queue_depth,
                retry_after_ms,
            }) => {
                assert_eq!(queue_depth, 2);
                assert!(retry_after_ms >= 50);
            }
            other => panic!("expected Overloaded, got {:?}", other.err()),
        }
        assert_eq!(sched.shed_count(), 1);
        drop(gate);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(sched.queue_depth(), 0);
    }

    #[test]
    fn queue_deadline_expires() {
        let sched = Scheduler::new(1);
        let _gate = admit(&sched);
        let start = Instant::now();
        let r = sched.admit(AdmitWait {
            deadline: Some(Duration::from_millis(30)),
            cancel: None,
        });
        assert!(
            matches!(r, Err(AdmitError::Expired { .. })),
            "{:?}",
            r.err()
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(sched.expired_count(), 1);
        assert_eq!(
            sched.queue_depth(),
            0,
            "expired waiter must leave the queue"
        );
    }

    #[test]
    fn cancel_while_queued_removes_ticket() {
        let sched = Arc::new(Scheduler::new(1));
        let gate = admit(&sched);
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (sched, flag) = (sched.clone(), flag.clone());
            std::thread::spawn(move || {
                sched
                    .admit(AdmitWait {
                        deadline: None,
                        cancel: Some(&flag),
                    })
                    .map(drop)
            })
        };
        while sched.queue_depth() == 0 {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Relaxed);
        let r = waiter.join().unwrap();
        assert!(matches!(r, Err(AdmitError::Cancelled)), "{:?}", r.err());
        assert_eq!(sched.queue_depth(), 0, "cancelled ticket must be removed");
        // The abandoned ticket must not wedge later arrivals.
        drop(gate);
        let _p = admit(&sched);
    }

    #[test]
    fn pre_raised_cancel_refused_without_queueing() {
        let sched = Scheduler::new(1);
        let flag = AtomicBool::new(true);
        let r = sched.admit(AdmitWait {
            deadline: None,
            cancel: Some(&flag),
        });
        assert!(matches!(r, Err(AdmitError::Cancelled)));
        assert_eq!(sched.queue_depth(), 0);
    }

    #[test]
    fn drain_refuses_new_and_waits_for_running() {
        let sched = Arc::new(Scheduler::new(2));
        let permit = admit(&sched);
        let released = Arc::new(AtomicBool::new(false));
        let drainer = {
            let (sched, released) = (sched.clone(), released.clone());
            std::thread::spawn(move || {
                sched.drain();
                assert!(
                    released.load(Ordering::SeqCst),
                    "drain returned before the in-flight permit was released"
                );
            })
        };
        while !sched.is_draining() {
            std::thread::yield_now();
        }
        // New arrivals (and queued waiters) are refused while draining.
        assert!(matches!(
            sched.admit(AdmitWait::default()),
            Err(AdmitError::ShuttingDown)
        ));
        released.store(true, Ordering::SeqCst);
        drop(permit);
        drainer.join().unwrap();
        assert!(matches!(
            sched.admit(AdmitWait::default()),
            Err(AdmitError::ShuttingDown)
        ));
    }

    #[test]
    fn drain_unblocks_queued_waiters() {
        let sched = Arc::new(Scheduler::new(1));
        let gate = admit(&sched);
        let waiter = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.admit(AdmitWait::default()).map(drop))
        };
        while sched.queue_depth() == 0 {
            std::thread::yield_now();
        }
        let drainer = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.drain())
        };
        let r = waiter.join().unwrap();
        assert!(matches!(r, Err(AdmitError::ShuttingDown)), "{:?}", r.err());
        drop(gate);
        drainer.join().unwrap();
    }

    #[test]
    fn permit_released_on_panic() {
        // A panic between admit and completion must release the slot
        // (RAII drop during unwind) and leave the lock usable.
        let sched = Arc::new(Scheduler::new(1));
        let sched2 = sched.clone();
        let r = std::thread::spawn(move || {
            let _permit = admit(&sched2);
            panic!("executor blew up");
        })
        .join();
        assert!(r.is_err());
        assert_eq!(sched.in_flight(), 0, "permit leaked on panic");
        // Slot is reusable and the (possibly poisoned) lock still works.
        let _p = admit(&sched);
        assert_eq!(sched.in_flight(), 1);
    }

    #[test]
    fn hammer_64_threads_respects_cap_and_drains_clean() {
        let sched = Arc::new(Scheduler::with_queue(3, 64));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let (sched, peak, live, done, shed) = (
                    sched.clone(),
                    peak.clone(),
                    live.clone(),
                    done.clone(),
                    shed.clone(),
                );
                std::thread::spawn(move || {
                    let wait = AdmitWait {
                        // A third of the threads carry a tight deadline.
                        deadline: (i % 3 == 0).then_some(Duration::from_millis(20)),
                        cancel: None,
                    };
                    match sched.admit(wait) {
                        Ok(_permit) => {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(1));
                            live.fetch_sub(1, Ordering::SeqCst);
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "capacity exceeded");
        assert_eq!(
            done.load(Ordering::SeqCst) + shed.load(Ordering::SeqCst),
            64,
            "every request must resolve exactly once"
        );
        assert_eq!(sched.in_flight(), 0);
        assert_eq!(sched.queue_depth(), 0);
    }
}
