//! The original issue loop ([`crate::Scheduler::LegacyScan`]): one global
//! clock, full roster rescan every iteration.  Kept only as the reference
//! implementation the scheduler-equivalence tests and audit oracles
//! compare the per-SM step against; no production run takes it.

use super::{Engine, IssueResult, WarpStatus, CANCEL_CHECK_PERIOD, OUT_IDLE, OUT_ISSUED};
use hopper_trace::StallReason;

impl Engine<'_> {
    pub(super) fn run_legacy(&mut self, roster: &[Vec<Vec<usize>>], tracing: bool) {
        let mut outcomes = vec![(OUT_IDLE, 0u32); if tracing { self.sms.len() * 4 } else { 0 }];
        let mut live = self.warps.len();
        let mut cancel_countdown = CANCEL_CHECK_PERIOD;
        while live > 0 {
            if self.limit_tripped(self.cycle, &mut cancel_countdown) {
                self.hit_limit = true;
                break;
            }
            let mut issued_any = false;
            let mut earliest_wakeup = u64::MAX;
            #[allow(clippy::needless_range_loop)] // sm/sched also index self.sms
            for sm in 0..self.sms.len() {
                for sched in 0..4 {
                    // Round-robin within the scheduler's warps, starting
                    // after the last issued one (greedy-then-oldest-ish).
                    let candidates = &roster[sm][sched];
                    if candidates.is_empty() {
                        continue;
                    }
                    let start = self.sms[sm].last_sched[sched] % candidates.len();
                    // Binding stall for the slot: the reason of the
                    // minimum-wakeup warp among those examined.
                    let mut slot_issued = false;
                    let mut slot_stall: Option<(u64, StallReason, u32)> = None;
                    for i in 0..candidates.len() {
                        let w = candidates[(start + i) % candidates.len()];
                        if self.warps[w].status == WarpStatus::Done {
                            continue;
                        }
                        if self.warps[w].retry_at > self.cycle {
                            earliest_wakeup = earliest_wakeup.min(self.warps[w].retry_at);
                            if tracing {
                                let wk = self.warps[w].retry_at;
                                let r = self.warps[w].stall_reason;
                                if slot_stall.is_none_or(|(b, ..)| wk < b) {
                                    slot_stall = Some((wk, r, self.warps[w].pc as u32));
                                }
                            }
                            continue;
                        }
                        let pc_before = self.warps[w].pc;
                        match self.try_issue(w, self.cycle, false) {
                            IssueResult::Issued => {
                                self.sms[sm].last_sched[sched] = (start + i) % candidates.len();
                                issued_any = true;
                                slot_issued = true;
                                if self.warps[w].status == WarpStatus::Done {
                                    live -= 1;
                                }
                                if tracing {
                                    self.note_issue(sm, sched, w, pc_before);
                                }
                                break;
                            }
                            IssueResult::Stalled(until, reason, _) => {
                                if until != u64::MAX {
                                    self.warps[w].retry_at = until.max(self.cycle + 1);
                                }
                                earliest_wakeup = earliest_wakeup.min(until.max(self.cycle + 1));
                                if tracing {
                                    self.note_stall(sm, sched, w, reason);
                                    let wk = until.max(self.cycle + 1);
                                    if slot_stall.is_none_or(|(b, ..)| wk < b) {
                                        slot_stall = Some((wk, reason, pc_before as u32));
                                    }
                                }
                            }
                            IssueResult::NeedsShared => {
                                unreachable!("serial scans never issue local-only")
                            }
                        }
                    }
                    if tracing {
                        outcomes[sm * 4 + sched] = if slot_issued {
                            (OUT_ISSUED, 0)
                        } else if let Some((_, r, pc)) = slot_stall {
                            (1 + r.bucket() as u8, pc)
                        } else {
                            (OUT_IDLE, 0)
                        };
                    }
                }
            }
            for sm in 0..self.sms.len() {
                self.release_sm_barriers(sm, self.cycle);
            }
            self.release_cluster_barriers(self.cycle, |_| {});
            let prev_cycle = self.cycle;
            self.cycle = if issued_any {
                self.cycle + 1
            } else if earliest_wakeup == u64::MAX {
                // Every live warp waits on a barrier nobody can complete
                // (a barrier completes only on an issue cycle): nothing
                // changes before the cap.
                self.cycle_cap()
            } else {
                // Fast-forward across a global stall.
                earliest_wakeup.max(self.cycle + 1)
            };
            // Each fast-forwarded cycle repeats this iteration's outcome,
            // so weight the buckets by the advance.
            for (slot, &outcome) in outcomes.iter().enumerate() {
                self.charge(slot, outcome, self.cycle - prev_cycle);
            }
        }
    }
}
