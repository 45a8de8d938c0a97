//! The issue loop: one scheduler-slot scan, one per-SM cycle step, and the
//! driver that orders steps by SM clock.
//!
//! An SM is the unit of scheduling state ([`SmRun`]): its own cycle, four
//! slot masks and live-warp count.  [`Engine::step_sm`] advances one SM by
//! one visited cycle and fast-forwards it across its own stalls;
//! [`Engine::run_serial`] steps the SMs in `(cycle, sm)` order.  DESIGN.md
//! §4d has the argument that this visits every side-effecting
//! `(cycle, sm, slot, position)` in the legacy scan's order.

use super::{
    Engine, Gate, IssueResult, WarpStatus, CANCEL_CHECK_PERIOD, MAX_CYCLES, MAX_SLOT_WARPS,
    N_GATES, OUT_IDLE, OUT_ISSUED,
};
use hopper_trace::StallReason;
use std::sync::atomic::Ordering;

/// Per-scheduler-slot state.  `ready` and `sleep` are disjoint bitmasks
/// over roster *positions* (a slot holds at most [`MAX_SLOT_WARPS`] warps —
/// `Engine::new` rejects wider) and together cover exactly the slot's non-`Done`
/// warps: `ready` holds every warp with `retry_at <= cycle` (including
/// barrier waiters, whose wakeup is not a known time), `sleep` holds warps
/// parked until a known wakeup.  Warps parked together form a bucket, led
/// by its lowest position; every member's `retry_at` equals the leader's,
/// so a drain reads one `retry_at` per bucket and ORs the due buckets back
/// into `ready`.
struct SlotState {
    /// Bitmask of roster positions eligible for an issue attempt.
    ready: u64,
    /// Bitmask of parked roster positions.
    sleep: u64,
    /// The positions that lead a bucket.
    leads: u64,
    /// Per leading position: its bucket's members (disjoint, covering
    /// `sleep`).
    bucket: Vec<u64>,
    /// Minimum wakeup over the buckets (`u64::MAX` when nothing sleeps).
    sleep_min: u64,
    /// Per [`Gate::index`]: the positions whose `refused_by` names that
    /// gate (DESIGN.md §4d point 8).
    memo: [u64; N_GATES],
}

impl SlotState {
    /// Park `mask` (ready positions, possibly none) as one bucket waking
    /// at `at`, every member's `retry_at`.
    #[inline]
    fn park(&mut self, at: u64, mask: u64) {
        if mask == 0 {
            return;
        }
        let lead = mask.trailing_zeros() as usize;
        self.bucket[lead] = mask;
        self.leads |= 1 << lead;
        self.ready &= !mask;
        self.sleep |= mask;
        self.sleep_min = self.sleep_min.min(at);
    }

    /// Track a warp's `refused_by` moving from `was` to `now`.
    fn remember(&mut self, bit: u64, was: Option<Gate>, now: Option<Gate>) {
        if was != now {
            if let Some(g) = was {
                self.memo[g.index()] &= !bit;
            }
            if let Some(g) = now {
                self.memo[g.index()] |= bit;
            }
        }
    }
}

/// Warps one refusal stands for in a scan: rotated roster positions, and
/// the `(until, reason, gate)` each would have been refused with.
type Herd = (u64, u64, StallReason, Gate);

/// One SM's scheduling state, persisted across steps.
struct SmRun {
    /// The cycle being stepped; after a completed step, the SM's next
    /// event cycle.
    cycle: u64,
    /// Resident warps not yet `Done`.
    live: usize,
    slots: [SlotState; 4],
    /// Scratch for the current scan's herds (at most one per gate).
    herds: Vec<Herd>,
    /// `issued_any` / earliest wakeup accumulated over the current cycle.
    issued_any: bool,
    earliest: u64,
    /// Traced runs: each slot's outcome code and binding PC from the last
    /// step, charged lazily for the cycles `booked..` when the SM is next
    /// stepped (or the wave ends), so a cluster release that pulls the SM
    /// back or a budget that cuts the wave short needs no un-booking.  A
    /// wholly-asleep slot's entry doubles as its cached outcome.
    outcomes: [(u8, u32); 4],
    booked: u64,
}

impl SmRun {
    fn new(sm_roster: &[Vec<usize>]) -> SmRun {
        let mut live = 0usize;
        let slots = std::array::from_fn(|sched| {
            let len = sm_roster[sched].len();
            live += len;
            debug_assert!(len <= MAX_SLOT_WARPS);
            SlotState {
                // The low `len` bits, without overflowing the shift at 64.
                ready: u64::MAX.checked_shr(64 - len as u32).unwrap_or(0),
                sleep: 0,
                leads: 0,
                bucket: vec![0; len],
                sleep_min: u64::MAX,
                memo: [0; N_GATES],
            }
        });
        SmRun {
            cycle: 0,
            live,
            slots,
            herds: Vec::with_capacity(N_GATES),
            issued_any: false,
            earliest: u64::MAX,
            outcomes: [(OUT_IDLE, 0); 4],
            booked: 0,
        }
    }
}

/// How one [`Engine::step_sm`] call left its SM.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Cycle complete; `run.cycle` is the SM's next event.
    Advanced,
    /// Cycle complete, nothing issued and no warp has a known wakeup:
    /// every live warp waits on a barrier only another SM can complete.
    Parked,
}

impl Engine<'_> {
    /// The cycle at which the run's limit trips: its budget, capped at
    /// [`MAX_CYCLES`].
    pub(super) fn cycle_cap(&self) -> u64 {
        self.cfg.limit.max_cycles.min(MAX_CYCLES)
    }

    /// The run's [`super::RunLimit`] poll, once per visited cycle: `true`
    /// when the cycle cap is reached, a warp has faulted or (checked every
    /// [`CANCEL_CHECK_PERIOD`] calls) the cancel flag is set.
    pub(super) fn limit_tripped(&self, cycle: u64, cancel_countdown: &mut u32) -> bool {
        if cycle >= self.cycle_cap() || self.faulted {
            return true;
        }
        if let Some(c) = &self.cfg.limit.cancel {
            *cancel_countdown -= 1;
            if *cancel_countdown == 0 {
                *cancel_countdown = CANCEL_CHECK_PERIOD;
                return c.load(Ordering::Relaxed);
            }
        }
        false
    }

    /// One slot's issue scan at `run.cycle`: re-admit due sleepers, then
    /// try ready warps in circular roster order from the last issuer until
    /// one issues.  An untraced scan answers a gate's refusal for every
    /// ready warp that gate already refused: they are skipped, and parked
    /// at scan end if the scan would have reached them (DESIGN.md §4d
    /// point 8).
    fn scan_slot<const TRACED: bool>(
        &mut self,
        run: &mut SmRun,
        sm: usize,
        sched: usize,
        candidates: &[usize],
    ) {
        let cycle = run.cycle;
        let st = &mut run.slots[sched];
        if st.sleep_min <= cycle {
            let (mut min, mut m) = (u64::MAX, st.leads);
            while m != 0 {
                let pos = m.trailing_zeros() as usize;
                m &= m - 1;
                let at = self.warps[candidates[pos]].retry_at;
                if at <= cycle {
                    let mask = st.bucket[pos];
                    st.leads &= !(1 << pos);
                    st.sleep &= !mask;
                    st.ready |= mask;
                } else {
                    min = min.min(at);
                }
            }
            st.sleep_min = min;
        }
        // A wholly-asleep slot issues nothing, and its traced outcome (the
        // minimum-wakeup sleeper) is last step's unless that was an issue.
        if st.ready == 0 && !(TRACED && run.outcomes[sched].0 == OUT_ISSUED) {
            run.earliest = run.earliest.min(st.sleep_min);
            return;
        }
        // Only ever set to a roster position of this slot.
        let start = self.sms[sm].last_sched[sched];
        debug_assert!(start < candidates.len());
        // Rotated right by `start`, positions in circular scan order are
        // ascending bits.
        let rot = |m: u64| m.rotate_right(start as u32);
        let herding = !TRACED;
        run.herds.clear();
        let mut skipped = 0u64;
        let mut issuer = None;
        // Stalls parked at one wakeup since the last different one: most
        // refusals of a scan share it, so they park as one bucket.
        let mut parking = (0u64, 0u64);
        // Binding stall (traced): reason and PC of the minimum-wakeup warp,
        // first in scan order on ties.
        let mut slot_stall: Option<(u64, StallReason, u32)> = None;
        // Traced scans merge parked warps in at their roster positions:
        // they cannot issue, but the legacy scan examined them for the
        // binding-stall minimum and its tie-break.
        let mut todo = rot(if TRACED {
            st.ready | st.sleep
        } else {
            st.ready
        });
        while todo != 0 {
            let r = todo.trailing_zeros();
            todo &= todo - 1;
            let pos = (r as usize + start) % 64;
            let bit = 1u64 << pos;
            let w = candidates[pos];
            if TRACED && st.sleep & bit != 0 {
                let ws = &self.warps[w];
                if slot_stall.is_none_or(|(b, ..)| ws.retry_at < b) {
                    slot_stall = Some((ws.retry_at, ws.stall_reason, ws.pc as u32));
                }
                continue;
            }
            #[cfg(debug_assertions)]
            if skipped & 1 << r != 0 {
                // Debug builds still examine each skipped warp, and demand
                // its herd's verdict.
                let &(_, until, reason, gate) =
                    run.herds.iter().find(|h| h.0 & 1 << r != 0).unwrap();
                assert_eq!(
                    self.try_issue(w, cycle),
                    IssueResult::Stalled(until, reason, Some(gate)),
                    "warp {w} cycle {cycle}: a skipped herd member's verdict differs"
                );
                continue;
            }
            let (pc_before, was) = (self.warps[w].pc, self.warps[w].refused_by);
            match self.try_issue(w, cycle) {
                IssueResult::Issued => {
                    st.remember(bit, was, None);
                    self.sms[sm].last_sched[sched] = pos;
                    run.issued_any = true;
                    issuer = Some(r);
                    if self.warps[w].status == WarpStatus::Done {
                        run.live -= 1;
                        st.ready &= !bit;
                    } else if let (false, Some(wk)) = (TRACED, self.scoreboard_wakeup(w, cycle)) {
                        // Its next attempt is a certain scoreboard refusal
                        // with this wakeup: park it now (point 9).
                        self.warps[w].retry_at = wk;
                        if parking.0 != wk {
                            st.park(parking.0, parking.1);
                            parking = (wk, 0);
                        }
                        parking.1 |= bit;
                    }
                    if TRACED {
                        self.note_issue(sm, sched, w, pc_before);
                    }
                    break;
                }
                IssueResult::Stalled(until, reason, gate) => {
                    st.remember(bit, was, gate);
                    let wk = until.max(cycle + 1);
                    if until != u64::MAX {
                        self.warps[w].retry_at = wk;
                        if parking.0 != wk {
                            st.park(parking.0, parking.1);
                            parking = (wk, 0);
                        }
                        parking.1 |= bit;
                        // Nothing commits before the scan's first issue, so
                        // the gate refuses every warp it refused before,
                        // with the same verdict.
                        if let (true, Some(g)) = (herding, gate) {
                            let herd = todo & !skipped & rot(st.memo[g.index()]);
                            if herd != 0 {
                                skipped |= herd;
                                if !cfg!(debug_assertions) {
                                    todo &= !herd;
                                }
                                run.herds.push((herd, until, reason, g));
                            }
                        }
                    }
                    if TRACED {
                        self.note_stall(sm, sched, w, reason);
                        if slot_stall.is_none_or(|(b, ..)| wk < b) {
                            slot_stall = Some((wk, reason, pc_before as u32));
                        }
                    }
                }
            }
        }
        st.park(parking.0, parking.1);
        // Park the herd members the scan would have reached: those before
        // the issuer, or all of them when nothing issued.  The rest were
        // never examined and stay ready.
        let reached = issuer.map_or(u64::MAX, |r| u64::MAX >> (63 - r));
        for &(herd, until, ..) in &run.herds {
            let park = (herd & reached).rotate_left(start as u32);
            let wk = until.max(cycle + 1);
            let mut m = park;
            while m != 0 {
                self.warps[candidates[m.trailing_zeros() as usize]].retry_at = wk;
                m &= m - 1;
            }
            st.park(wk, park);
        }
        // Parked wakeups (old and fresh) are the slot's share of the SM's
        // fast-forward target; the target is only consumed when no slot
        // issues, and then the legacy scan examined every parked warp too.
        run.earliest = run.earliest.min(st.sleep_min);
        if TRACED {
            run.outcomes[sched] = if issuer.is_some() {
                (OUT_ISSUED, 0)
            } else if let Some((_, r, pc)) = slot_stall {
                (1 + r.bucket() as u8, pc)
            } else {
                (OUT_IDLE, 0)
            };
        }
    }

    /// Charge `run`'s slot outcomes for the cycles `run.booked..upto`.
    fn book(&mut self, run: &mut SmRun, sm: usize, upto: u64) {
        for (sched, &outcome) in run.outcomes.iter().enumerate() {
            self.charge(sm * 4 + sched, outcome, upto - run.booked);
        }
        run.booked = upto;
    }

    /// One SM, one cycle: scan the four slots, release the SM's full block
    /// barriers, then fast-forward the SM's clock across its own stall —
    /// no event on this SM can occur before its earliest wakeup (cluster
    /// releases, the one cross-SM wakeup, are the driver's job).
    fn step_sm<const TRACED: bool>(
        &mut self,
        roster: &[Vec<Vec<usize>>],
        run: &mut SmRun,
        sm: usize,
    ) -> Step {
        let cycle = run.cycle;
        if TRACED {
            self.book(run, sm, cycle);
        }
        for (sched, candidates) in roster[sm].iter().enumerate() {
            if !candidates.is_empty() {
                self.scan_slot::<TRACED>(run, sm, sched, candidates);
            }
        }
        self.release_sm_barriers(sm, cycle);
        if TRACED && run.live == 0 {
            // Retired: this step's outcomes cover exactly its own cycle;
            // the end-of-wave flush books every slot idle from here on.
            self.book(run, sm, cycle + 1);
            run.outcomes = [(OUT_IDLE, 0); 4];
        }
        let (step, next) = if run.issued_any {
            (Step::Advanced, cycle + 1)
        } else if run.earliest == u64::MAX {
            (Step::Parked, cycle + 1)
        } else {
            (Step::Advanced, run.earliest.max(cycle + 1))
        };
        run.cycle = next;
        run.issued_any = false;
        run.earliest = u64::MAX;
        step
    }

    /// The driver: step the SMs in `(cycle, sm)` order of their own
    /// clocks, then run cycle `c`'s
    /// cluster-barrier release — the legacy scan's order restricted to the
    /// visits that can have side effects (DESIGN.md §4d).
    pub(super) fn run_serial<const TRACED: bool>(&mut self, roster: &[Vec<Vec<usize>>]) {
        let mut runs: Vec<SmRun> = roster.iter().map(|r| SmRun::new(r)).collect();
        // Next cycle each SM must be stepped at; `u64::MAX` while parked
        // and once retired (an SM without warps retires in round 0).
        let mut clock = vec![0u64; runs.len()];
        let mut live_sms = runs.len();
        let mut cancel_countdown = CANCEL_CHECK_PERIOD;
        let mut next = 0u64;
        while live_sms > 0 {
            let c = if next == u64::MAX {
                // Every live SM waits on a barrier nobody can complete: no
                // SM can act before the cap, and lazy booking charges the
                // wait as the same barrier stall, so jump there.
                let cap = self.cycle_cap();
                for (at, run) in clock.iter_mut().zip(&runs) {
                    if run.live > 0 {
                        *at = cap;
                    }
                }
                cap
            } else {
                next
            };
            self.cycle = c;
            if self.limit_tripped(c, &mut cancel_countdown) {
                self.hit_limit = true;
                break;
            }
            next = u64::MAX;
            for (sm, (at, run)) in clock.iter_mut().zip(&mut runs).enumerate() {
                if *at == c {
                    run.cycle = c;
                    let step = self.step_sm::<TRACED>(roster, run, sm);
                    live_sms -= usize::from(run.live == 0);
                    *at = if run.live == 0 || step == Step::Parked {
                        u64::MAX
                    } else {
                        run.cycle
                    };
                    #[cfg(debug_assertions)]
                    if c % 64 == 0 {
                        self.check_sm(roster, run, sm, step == Step::Parked);
                    }
                }
                next = next.min(*at);
            }
            // A release lands on an issue cycle, so the legacy scan visits
            // the freed warps at `c + 1`: re-arm parked SMs and pull back
            // SMs that had fast-forwarded past it.
            self.release_cluster_barriers(c, |sm| {
                clock[sm] = c + 1;
                next = c + 1;
            });
            debug_assert!(next > c, "SM clocks must stay ahead of the round");
            if live_sms == 0 {
                self.cycle = c + 1;
            }
        }
        for (sm, run) in runs.iter_mut().enumerate() {
            if TRACED {
                self.book(run, sm, self.cycle);
            }
            #[cfg(debug_assertions)]
            self.check_sm(roster, run, sm, clock[sm] == u64::MAX && run.live > 0);
        }
    }

    /// Debug-only consistency check of one SM between steps: `ready` and
    /// `sleep` exactly partition each slot's non-`Done` warps, the buckets
    /// are disjoint, cover `sleep`, share their leader's `retry_at` and set
    /// `sleep_min`, a gate's memo mask holds exactly the warps
    /// whose `refused_by` names it, `live` matches the roster, and a parked
    /// SM holds nothing but barrier waiters.
    #[cfg(debug_assertions)]
    fn check_sm(&self, roster: &[Vec<Vec<usize>>], run: &SmRun, sm: usize, parked: bool) {
        let mut alive = 0usize;
        for (sched, (candidates, st)) in roster[sm].iter().zip(&run.slots).enumerate() {
            assert_eq!(st.ready & st.sleep, 0, "slot ({sm},{sched}): masks overlap");
            let (mut covered, mut min, mut leads) = (0u64, u64::MAX, st.leads);
            while leads != 0 {
                let lead = leads.trailing_zeros() as usize;
                leads &= leads - 1;
                let mask = st.bucket[lead];
                assert_eq!(
                    mask.trailing_zeros() as usize,
                    lead,
                    "slot ({sm},{sched}): bad lead"
                );
                assert_eq!(covered & mask, 0, "slot ({sm},{sched}): buckets overlap");
                covered |= mask;
                let at = self.warps[candidates[lead]].retry_at;
                min = min.min(at);
                let mut m = mask;
                while m != 0 {
                    let ws = &self.warps[candidates[m.trailing_zeros() as usize]];
                    assert_eq!(
                        ws.retry_at, at,
                        "slot ({sm},{sched}): sleeper off its bucket"
                    );
                    m &= m - 1;
                }
            }
            assert_eq!(
                covered, st.sleep,
                "slot ({sm},{sched}): buckets must cover sleep"
            );
            assert_eq!(st.sleep_min, min, "slot ({sm},{sched}): stale sleep_min");
            for (pos, &w) in candidates.iter().enumerate() {
                let memo = self.warps[w].refused_by.map(Gate::index);
                for (g, mask) in st.memo.iter().enumerate() {
                    assert_eq!(
                        mask >> pos & 1 == 1,
                        memo == Some(g),
                        "slot ({sm},{sched}) warp {w}: memo mask {g} out of sync"
                    );
                }
            }
            let mut m = st.ready | st.sleep;
            while m != 0 {
                let pos = m.trailing_zeros() as usize;
                m &= m - 1;
                assert!(
                    pos < candidates.len(),
                    "slot ({sm},{sched}): bit beyond roster"
                );
                let ws = &self.warps[candidates[pos]];
                assert_ne!(ws.status, WarpStatus::Done);
                if st.sleep & (1 << pos) != 0 {
                    assert_eq!(ws.status, WarpStatus::Ready);
                }
                assert!(
                    !parked || ws.status != WarpStatus::Ready,
                    "slot ({sm},{sched}): parked SM holds a warp that is not at a barrier"
                );
            }
            let not_done = |&&w: &&usize| self.warps[w].status != WarpStatus::Done;
            assert_eq!(
                (st.ready | st.sleep).count_ones() as usize,
                candidates.iter().filter(not_done).count(),
                "slot ({sm},{sched}): ready|sleep must partition live warps"
            );
            alive += (st.ready | st.sleep).count_ones() as usize;
        }
        assert_eq!(alive, run.live, "sm {sm}: live warp count out of sync");
    }
}
