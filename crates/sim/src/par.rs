//! Parallel intra-kernel execution: shard SMs across a worker pool.
//!
//! Each SM advances through the same per-SM step as the serial driver
//! ([`Engine::step_sm`], untraced), on its own clock.  Everything SMs
//! share is one struct, the memory side (`memside.rs`: global memory, the
//! L2 and TLB, the L2/DRAM bandwidth queues), and SM code reaches it only
//! through `Engine::shared`, which debug-asserts the step holds shared
//! access.  Only *shared-class* instructions (`Decoded::shared`:
//! `Instr::mem_space` is `Global`) get there, and those are serialized by
//! a gate that grants access in strict `(cycle, sm)` order, which is
//! exactly the order the serial engine visits SMs within a cycle.  All
//! other work commutes across SMs, so the parallel schedule is a
//! reordering of commuting operations and the final state — metrics,
//! energy, memory contents, achieved clock — is bitwise identical to the
//! serial run.  The `parallel_equivalence` audit oracle enforces this.
//!
//! ## Protocol
//!
//! Every SM publishes a monotonic clock (its current cycle; `u64::MAX`
//! once all its warps retire).  When an SM's slot scan reaches a
//! shared-class instruction that passes all warp-local checks, the scan
//! aborts *before* `execute` touches anything (the stalls committed so
//! far are SM-local verdicts no other SM can change, so the re-run at the
//! same cycle starts from them), and the SM suspends at `(cycle, slot)`.
//! A suspended SM is granted the gate once
//! it is the earliest suspended event *and* every other live SM's clock
//! proves it can no longer produce an earlier-ordered shared access:
//! `clock > cycle`, or `clock == cycle` with a larger SM index (the
//! serial scan visits same-cycle SMs in index order).  The granted SM
//! re-runs the aborted slot and finishes the cycle with full shared
//! access, then reverts to local-only execution; publishing its advanced
//! clock is what releases the gate.
//!
//! Mutual exclusion is emergent: while a granted SM is still inside its
//! cycle `c`, its clock stays at `c`, which blocks every other grant at
//! cycles `>= c` (and earlier events would have been granted first).
//!
//! ## Blocking
//!
//! Workers own SMs round-robin (`worker w` drives SMs `w, w+T, …`) and
//! only block when every owned SM is suspended or done.  Wakeups are
//! best-effort — a runner that advances its clock past the smallest
//! wanted cycle notifies the condvar — backed by a short `wait_timeout`
//! so a missed notify costs bounded latency, never progress.
//!
//! ## Safety
//!
//! Workers share the engine through a raw pointer and materialize `&mut
//! Engine` concurrently.  The accesses are disjoint by construction
//! (per-SM state by ownership, the memory side by the gate — the
//! `Engine::shared` assert is what checks a local-only step never opens
//! it), but overlapping `&mut` is still formally UB by Rust's aliasing
//! rules; the honest alternative — per-SM shards behind `UnsafeCell` —
//! belongs to the decision whether this driver stays (DESIGN.md §4g).
//! Until then the pointer never escapes this module, and the serial
//! oracle plus the equivalence suite guard the behaviour.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use super::sched::{SmRun, Step};
use super::{Engine, CANCEL_CHECK_PERIOD, MAX_CYCLES};

/// Clock value published once an SM has retired all its warps.
const DONE: u64 = u64::MAX;

/// Upper bound on a blocked worker's sleep between grant re-checks; the
/// correctness net under best-effort notifies.
const PARK_TIMEOUT: Duration = Duration::from_micros(500);

/// Where a driven SM stands between `drive` calls.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Executing locally (initial state, and after stop interrupts).
    Running,
    /// Parked mid-cycle awaiting a shared-access grant.
    Suspended,
    /// All warps retired.
    Done,
}

/// One SM's step state plus where it stands between `drive` calls.
struct ParSm {
    run: SmRun,
    phase: Phase,
}

/// The shared-access gate plus run-wide control flags.
struct Gate {
    /// Per-SM progress clocks (current cycle; [`DONE`] when retired).
    /// Monotonic — a reader seeing `clock[s] > c` knows SM `s` will
    /// never produce a shared access ordered at or before cycle `c`.
    clocks: Vec<AtomicU64>,
    /// Suspended SMs awaiting a grant, keyed `(cycle, sm)`.
    waiting: Mutex<std::collections::BTreeSet<(u64, u32)>>,
    cv: Condvar,
    /// Cycle of the earliest suspended event (`u64::MAX` when none);
    /// runners crossing it notify the condvar.
    min_wanted: AtomicU64,
    /// Abort everything (cancel, fault or panic).
    stop: AtomicBool,
    /// `stop` was due to the run's cancel flag (sets `hit_limit`).
    cancelled: AtomicBool,
}

impl Gate {
    fn new(nsms: usize) -> Gate {
        Gate {
            clocks: (0..nsms).map(|_| AtomicU64::new(0)).collect(),
            waiting: Mutex::new(std::collections::BTreeSet::new()),
            cv: Condvar::new(),
            min_wanted: AtomicU64::new(u64::MAX),
            stop: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Lock the waiting set, shrugging off poison (a panicking worker
    /// already set `stop`; survivors only need the set's last state).
    fn lock_waiting(&self) -> MutexGuard<'_, std::collections::BTreeSet<(u64, u32)>> {
        self.waiting
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Park SM `sm` at `cycle` pending a shared-access grant.
    fn suspend(&self, cycle: u64, sm: usize) {
        let mut set = self.lock_waiting();
        set.insert((cycle, sm as u32));
        self.min_wanted
            .store(set.first().expect("just inserted").0, Ordering::SeqCst);
    }

    /// Try to acquire the gate for suspended SM `sm` at `cycle`.  Grants
    /// in strict serial `(cycle, sm)` order: the event must be the
    /// earliest suspended one and every other live SM must provably be
    /// past it.  Clock monotonicity makes the check stable: once an SM's
    /// clock passes `cycle` it cannot come back.
    fn try_grant(&self, cycle: u64, sm: usize) -> bool {
        let mut set = self.lock_waiting();
        if set.first() != Some(&(cycle, sm as u32)) {
            return false;
        }
        for (i, clock) in self.clocks.iter().enumerate() {
            if i == sm {
                continue;
            }
            let c = clock.load(Ordering::SeqCst);
            if !(c > cycle || (c == cycle && i > sm)) {
                return false;
            }
        }
        set.pop_first();
        self.min_wanted
            .store(set.first().map_or(u64::MAX, |e| e.0), Ordering::SeqCst);
        true
    }

    /// Publish SM `sm`'s advance from cycle `from` to `to`, waking
    /// blocked workers whose wanted cycle we just crossed.
    fn advance_clock(&self, sm: usize, from: u64, to: u64) {
        self.clocks[sm].store(to, Ordering::SeqCst);
        let m = self.min_wanted.load(Ordering::SeqCst);
        // `m == to` also wakes: landing exactly on the wanted cycle can
        // enable a grant through the same-cycle SM-index ordering.
        if from <= m && m <= to {
            let _guard = self.lock_waiting();
            self.cv.notify_all();
        }
    }

    /// Request a run-wide abort and wake everyone.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _guard = self.lock_waiting();
        self.cv.notify_all();
    }

    /// Block briefly; callers re-check their grants on return.
    fn park(&self) {
        std::thread::yield_now();
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        let guard = self.lock_waiting();
        drop(self.cv.wait_timeout(guard, PARK_TIMEOUT));
    }
}

/// Sets `stop` if its worker unwinds, so siblings drain instead of
/// waiting forever on a clock that will never advance; `thread::scope`
/// then re-raises the panic on the caller.
struct PanicGuard<'g>(&'g Gate);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.request_stop();
        }
    }
}

/// Raw shared access to the engine and the per-SM run states.  See the
/// module docs for the aliasing contract.
struct Shards<'a, 'b> {
    eng: *mut Engine<'a>,
    runs: *mut ParSm,
    _marker: PhantomData<&'b ()>,
}

unsafe impl Send for Shards<'_, '_> {}
unsafe impl Sync for Shards<'_, '_> {}

impl<'a> Engine<'a> {
    /// Parallel counterpart of [`Engine::run_serial`] for the untraced,
    /// unbounded, single-block-cluster case (checked by
    /// [`Engine::par_workers`]).  Bitwise-identical results to the
    /// serial driver, per the module-level argument.
    pub(super) fn run_parallel(&mut self, roster: &[Vec<Vec<usize>>], workers: usize) {
        debug_assert!(self.tr.sink.is_none() && self.replay.is_none());
        let nsms = self.sms.len();
        let gate = Gate::new(nsms);
        let mut runs: Vec<ParSm> = roster
            .iter()
            .map(|r| ParSm {
                run: SmRun::new(r),
                phase: Phase::Running,
            })
            .collect();
        let shards = Shards {
            eng: self as *mut Engine<'a>,
            runs: runs.as_mut_ptr(),
            _marker: PhantomData,
        };
        rayon::spmd(workers, |wid| {
            let _guard = PanicGuard(&gate);
            worker_loop(&shards, &gate, roster, wid, workers, nsms);
        });
        self.cycle = runs
            .iter()
            .map(|p| p.run.cycle)
            .max()
            .unwrap_or(self.cycle)
            .max(self.cycle);
        // SMs stuck at the cap: the serial driver trips at the first of
        // their clocks, once every other SM has retired.
        let stuck = runs.iter().filter(|p| p.run.live > 0).map(|p| p.run.cycle);
        if gate.cancelled.load(Ordering::SeqCst) {
            self.hit_limit = true;
        } else if let Some(c) = stuck.min() {
            self.hit_limit = true;
            self.cycle = c;
        }
    }
}

/// One worker: round-robin over its owned SMs, driving each until it
/// suspends or finishes, granting gates where possible, parking only
/// when nothing owned can move.
fn worker_loop(
    shards: &Shards<'_, '_>,
    gate: &Gate,
    roster: &[Vec<Vec<usize>>],
    wid: usize,
    workers: usize,
    nsms: usize,
) {
    let owned: Vec<usize> = (wid..nsms).step_by(workers).collect();
    let mut cancel_countdown = CANCEL_CHECK_PERIOD;
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for &sm in &owned {
            if gate.stop.load(Ordering::Relaxed) {
                return;
            }
            // Each owned index is touched by exactly this worker; the
            // engine pointer aliases per the module-level contract.
            let p = unsafe { &mut *shards.runs.add(sm) };
            let eng = unsafe { &mut *shards.eng };
            match p.phase {
                Phase::Done => continue,
                Phase::Running => {
                    all_done = false;
                    progressed = true;
                    drive(eng, gate, roster, p, sm, &mut cancel_countdown, false);
                }
                Phase::Suspended => {
                    all_done = false;
                    if gate.try_grant(p.run.cycle, sm) {
                        progressed = true;
                        drive(eng, gate, roster, p, sm, &mut cancel_countdown, true);
                    }
                }
            }
        }
        if all_done {
            return;
        }
        if !progressed {
            gate.park();
            if gate.stop.load(Ordering::Relaxed) {
                return;
            }
        }
    }
}

/// Advance one SM until it suspends on a shared access, retires all its
/// warps, or a stop is requested.  `gate_held` is true when entered via
/// a grant: the resumed slot and the remainder of that cycle then run
/// with full shared access.
fn drive(
    eng: &mut Engine<'_>,
    gate: &Gate,
    roster: &[Vec<Vec<usize>>],
    p: &mut ParSm,
    sm: usize,
    cancel_countdown: &mut u32,
    mut gate_held: bool,
) {
    let run = &mut p.run;
    loop {
        // Retired, or stuck at the cycle cap: either way this SM is done,
        // and `run_parallel` reads which from its live count.
        if run.live == 0 || run.cycle >= MAX_CYCLES {
            p.phase = Phase::Done;
            gate.advance_clock(sm, run.cycle, DONE);
            return;
        }
        // No cycle budget on this path (`par_workers`): a trip is a cancel
        // or a fault.
        if eng.limit_tripped(run.cycle, cancel_countdown) {
            gate.cancelled.store(true, Ordering::SeqCst);
            gate.request_stop();
            return;
        }
        if gate.stop.load(Ordering::Relaxed) {
            return;
        }
        let from = run.cycle;
        match eng.step_sm::<false>(roster, run, sm, !gate_held) {
            Step::NeedsShared => {
                p.phase = Phase::Suspended;
                gate.suspend(run.cycle, sm);
                return;
            }
            // Single-block clusters: no other SM can complete this SM's
            // barriers, so it jumps to the cap as the serial driver does.
            Step::Parked => run.cycle = MAX_CYCLES,
            Step::Advanced => {}
        }
        gate_held = false;
        gate.advance_clock(sm, from, run.cycle);
    }
}
