//! Aggregating stall-attribution sink and its report types.

use crate::{CacheTotals, SlotTotals, StallReason, TraceSink, UnitBusy, Wants, N_SLOT_REASONS};

/// Accumulated cycle accounting for one warp-scheduler slot, summed over
/// all waves of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotProfile {
    /// SM index.
    pub sm: u32,
    /// Warp-scheduler slot within the SM.
    pub sched: u32,
    /// Cycles in which this slot issued an instruction.
    pub issued: u64,
    /// Cycles with no runnable warp on this slot.
    pub idle: u64,
    /// Stalled cycles bucketed by [`StallReason::SLOT_REASONS`].
    pub stalled: [u64; N_SLOT_REASONS],
    /// Total cycles accounted to this slot.
    pub total: u64,
}

impl SlotProfile {
    /// Sum of all stall buckets.
    pub fn stalled_total(&self) -> u64 {
        self.stalled.iter().sum()
    }
}

/// Accumulated busy time for one functional unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitOccupancy {
    /// SM index (`u32::MAX` for device-wide units such as L2/DRAM ports).
    pub sm: u32,
    /// Unit name.
    pub unit: &'static str,
    /// Cycles (fractional) the unit spent busy.
    pub busy: f64,
    /// Total cycles over which `busy` accumulated.
    pub total: u64,
}

impl UnitOccupancy {
    /// Busy fraction in `[0, 1]` (0 if no cycles elapsed).
    pub fn occupancy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.busy / self.total as f64
        }
    }
}

/// Launch-wide stall attribution: per-scheduler histograms, functional
/// unit occupancy, cache totals and DVFS losses.
///
/// Wants only the end-of-wave summary ([`Wants::summary`]), so a profiled
/// run builds no per-event records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallProfile {
    /// Per-(SM, scheduler) cycle accounting.
    pub slots: Vec<SlotProfile>,
    /// Per-(SM, unit) busy time.
    pub units: Vec<UnitOccupancy>,
    /// Cache hit/miss totals.
    pub cache: CacheTotals,
    /// Device-level cycles lost to DVFS throttling.
    pub dvfs_throttle_cycles: u64,
    /// Total simulated cycles across all waves.
    pub total_cycles: u64,
    /// Number of waves merged into this profile.
    pub waves: u32,
}

impl StallProfile {
    fn slot_mut(&mut self, sm: u32, sched: u32) -> &mut SlotProfile {
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.sm == sm && s.sched == sched)
        {
            return &mut self.slots[i];
        }
        self.slots.push(SlotProfile {
            sm,
            sched,
            ..SlotProfile::default()
        });
        self.slots.last_mut().unwrap()
    }

    /// Check the conservation invariant on every slot:
    /// `issued + stalled + idle == total`, with each slot's total bounded
    /// by the launch total.
    pub fn conservation_ok(&self) -> bool {
        self.slots.iter().all(|s| {
            s.issued + s.idle + s.stalled_total() == s.total && s.total <= self.total_cycles
        })
    }

    /// First observable divergence between two profiles as a short
    /// human-readable description, `None` when equal. Differential
    /// oracles (`hopper-audit`) use this to say *where* two runs
    /// disagreed instead of dumping both profiles wholesale.
    pub fn first_divergence(&self, other: &StallProfile) -> Option<String> {
        if self == other {
            return None;
        }
        if self.waves != other.waves {
            return Some(format!("waves: {} vs {}", self.waves, other.waves));
        }
        if self.total_cycles != other.total_cycles {
            return Some(format!(
                "total_cycles: {} vs {}",
                self.total_cycles, other.total_cycles
            ));
        }
        if self.slots.len() != other.slots.len() {
            return Some(format!(
                "slot count: {} vs {}",
                self.slots.len(),
                other.slots.len()
            ));
        }
        for (a, b) in self.slots.iter().zip(other.slots.iter()) {
            if a != b {
                return Some(format!("slot sm{} sched{}: {a:?} vs {b:?}", a.sm, a.sched));
            }
        }
        if self.units.len() != other.units.len() {
            return Some(format!(
                "unit count: {} vs {}",
                self.units.len(),
                other.units.len()
            ));
        }
        for (a, b) in self.units.iter().zip(other.units.iter()) {
            if a != b {
                return Some(format!("unit {} on sm{}: {a:?} vs {b:?}", a.unit, a.sm));
            }
        }
        if self.cache != other.cache {
            return Some(format!(
                "cache totals: {:?} vs {:?}",
                self.cache, other.cache
            ));
        }
        Some(format!(
            "dvfs_throttle_cycles: {} vs {}",
            self.dvfs_throttle_cycles, other.dvfs_throttle_cycles
        ))
    }

    /// Collapse the per-slot histograms into one launch-wide summary.
    pub fn summary(&self) -> StallSummary {
        let mut sum = StallSummary {
            dvfs_throttle_cycles: self.dvfs_throttle_cycles,
            ..StallSummary::default()
        };
        for s in &self.slots {
            sum.slot_cycles += s.total;
            sum.issued += s.issued;
            sum.idle += s.idle;
            for (b, v) in sum.stalled.iter_mut().zip(s.stalled.iter()) {
                *b += v;
            }
        }
        sum
    }
}

impl TraceSink for StallProfile {
    fn wants(&self) -> Wants {
        Wants {
            summary: true,
            ..Wants::NONE
        }
    }

    fn begin_wave(&mut self, _base_cycle: u64, _sms: u32, _slots_per_sm: u32) {
        self.waves += 1;
    }

    fn end_wave(&mut self, cycles: u64) {
        self.total_cycles += cycles;
    }

    fn slot_totals(&mut self, t: &SlotTotals) {
        let s = self.slot_mut(t.sm, t.sched);
        s.issued += t.issued;
        s.idle += t.idle;
        for (b, v) in s.stalled.iter_mut().zip(t.stalled.iter()) {
            *b += v;
        }
        s.total += t.total;
    }

    fn unit_busy(&mut self, b: &UnitBusy) {
        if let Some(u) = self
            .units
            .iter_mut()
            .find(|u| u.sm == b.sm && u.unit == b.unit)
        {
            u.busy += b.busy;
            u.total += b.total;
        } else {
            self.units.push(UnitOccupancy {
                sm: b.sm,
                unit: b.unit,
                busy: b.busy,
                total: b.total,
            });
        }
    }

    fn cache_totals(&mut self, t: &CacheTotals) {
        self.cache.l1_hits += t.l1_hits;
        self.cache.l1_misses += t.l1_misses;
        self.cache.l2_hits += t.l2_hits;
        self.cache.l2_misses += t.l2_misses;
        self.cache.tlb_misses += t.tlb_misses;
    }

    fn dvfs_throttle(&mut self, cycles: u64) {
        self.dvfs_throttle_cycles += cycles;
    }
}

/// Launch-wide collapsed stall accounting, suitable for embedding in
/// `RunStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallSummary {
    /// Total scheduler-slot cycles accounted (`cycles * slots`).
    pub slot_cycles: u64,
    /// Slot-cycles that issued an instruction.
    pub issued: u64,
    /// Slot-cycles with no runnable warp.
    pub idle: u64,
    /// Stalled slot-cycles bucketed by [`StallReason::SLOT_REASONS`].
    pub stalled: [u64; N_SLOT_REASONS],
    /// Device-level cycles lost to DVFS throttling.
    pub dvfs_throttle_cycles: u64,
}

impl StallSummary {
    /// Fraction of slot-cycles that issued.
    pub fn issue_rate(&self) -> f64 {
        if self.slot_cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.slot_cycles as f64
        }
    }

    /// The dominant stall reason and its slot-cycle count, if any cycle
    /// stalled at all.
    pub fn top_stall(&self) -> Option<(StallReason, u64)> {
        StallReason::SLOT_REASONS
            .iter()
            .map(|&r| (r, self.stalled[r.bucket()]))
            .max_by_key(|&(_, v)| v)
            .filter(|&(_, v)| v > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(sm: u32, sched: u32) -> SlotTotals {
        let mut stalled = [0u64; N_SLOT_REASONS];
        stalled[StallReason::Scoreboard.bucket()] = 30;
        stalled[StallReason::Barrier.bucket()] = 10;
        SlotTotals {
            sm,
            sched,
            issued: 50,
            idle: 10,
            stalled,
            total: 100,
        }
    }

    #[test]
    fn accumulates_and_conserves() {
        let mut p = StallProfile::default();
        p.begin_wave(0, 1, 4);
        p.slot_totals(&totals(0, 0));
        p.slot_totals(&totals(0, 1));
        p.end_wave(100);
        // Second wave merges into the same slots.
        p.begin_wave(100, 1, 4);
        p.slot_totals(&totals(0, 0));
        p.end_wave(100);
        assert_eq!(p.waves, 2);
        assert_eq!(p.total_cycles, 200);
        assert_eq!(p.slots.len(), 2);
        assert!(p.conservation_ok());
        let sum = p.summary();
        assert_eq!(sum.issued, 150);
        assert_eq!(sum.slot_cycles, 300);
        assert_eq!(sum.top_stall(), Some((StallReason::Scoreboard, 90)));
        assert!(sum.issue_rate() > 0.49 && sum.issue_rate() < 0.51);
    }

    #[test]
    fn first_divergence_pinpoints_slot() {
        let mut p = StallProfile::default();
        p.begin_wave(0, 1, 4);
        p.slot_totals(&totals(0, 0));
        p.end_wave(100);
        let mut q = p.clone();
        assert_eq!(p.first_divergence(&q), None);
        q.slots[0].issued += 1;
        let d = p.first_divergence(&q).expect("profiles differ");
        assert!(d.contains("slot sm0 sched0"), "{d}");
        let mut r = p.clone();
        r.end_wave(5);
        assert!(p.first_divergence(&r).unwrap().contains("total_cycles"));
    }

    #[test]
    fn conservation_detects_mismatch() {
        let mut p = StallProfile::default();
        p.begin_wave(0, 1, 4);
        let mut t = totals(0, 0);
        t.issued += 1; // break the books
        p.slot_totals(&t);
        p.end_wave(100);
        assert!(!p.conservation_ok());
    }
}
