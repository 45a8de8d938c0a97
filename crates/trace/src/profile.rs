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

    /// Human-readable report: stall histogram per scheduler reason,
    /// functional-unit occupancy, cache totals.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let sum = self.summary();
        let slot_cycles = sum.slot_cycles.max(1) as f64;
        let _ = writeln!(
            out,
            "stall attribution over {} cycles x {} scheduler slots ({} wave{}):",
            self.total_cycles,
            self.slots.len(),
            self.waves,
            if self.waves == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>14} {:>8}",
            "issued",
            sum.issued,
            pct(sum.issued as f64 / slot_cycles)
        );
        let mut buckets: Vec<(StallReason, u64)> = StallReason::SLOT_REASONS
            .iter()
            .map(|&r| (r, sum.stalled[r.bucket()]))
            .collect();
        buckets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (r, v) in buckets {
            let _ = writeln!(
                out,
                "  {:<18} {:>14} {:>8}",
                r.name(),
                v,
                pct(v as f64 / slot_cycles)
            );
        }
        let _ = writeln!(
            out,
            "  {:<18} {:>14} {:>8}",
            "idle",
            sum.idle,
            pct(sum.idle as f64 / slot_cycles)
        );
        if self.dvfs_throttle_cycles > 0 {
            let _ = writeln!(
                out,
                "  {:<18} {:>14}   (device-level, not in slot totals)",
                "dvfs_throttle", self.dvfs_throttle_cycles
            );
        }
        if !self.units.is_empty() {
            let _ = writeln!(out, "functional-unit occupancy (mean over SMs):");
            for (unit, busy, total, n) in self.units_by_name() {
                let occ = if total == 0.0 { 0.0 } else { busy / total };
                let _ = writeln!(
                    out,
                    "  {:<18} {:>8}   ({} instance{})",
                    unit,
                    pct(occ),
                    n,
                    if n == 1 { "" } else { "s" }
                );
            }
        }
        let c = &self.cache;
        if c.l1_hits + c.l1_misses + c.l2_hits + c.l2_misses > 0 {
            let _ = writeln!(
                out,
                "caches: L1 {}/{} hits, L2 {}/{} hits, {} TLB misses",
                c.l1_hits,
                c.l1_hits + c.l1_misses,
                c.l2_hits,
                c.l2_hits + c.l2_misses,
                c.tlb_misses
            );
        }
        out
    }

    /// Merge unit occupancies across SMs, preserving first-seen unit
    /// order: `(unit, busy_sum, total_sum, instances)`.
    fn units_by_name(&self) -> Vec<(&'static str, f64, f64, usize)> {
        let mut rows: Vec<(&'static str, f64, f64, usize)> = Vec::new();
        for u in &self.units {
            if let Some(row) = rows.iter_mut().find(|r| r.0 == u.unit) {
                row.1 += u.busy;
                row.2 += u.total as f64;
                row.3 += 1;
            } else {
                rows.push((u.unit, u.busy, u.total as f64, 1));
            }
        }
        rows
    }
}

fn pct(f: f64) -> String {
    format!("{:5.1}%", f * 100.0)
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

    #[test]
    fn render_mentions_top_reason() {
        let mut p = StallProfile::default();
        p.begin_wave(0, 1, 4);
        p.slot_totals(&totals(0, 0));
        p.unit_busy(&UnitBusy {
            sm: 0,
            unit: "int",
            busy: 25.0,
            total: 100,
        });
        p.cache_totals(&CacheTotals {
            l1_hits: 3,
            l1_misses: 1,
            l2_hits: 1,
            l2_misses: 0,
            tlb_misses: 0,
        });
        p.end_wave(100);
        let r = p.render();
        assert!(r.contains("scoreboard"), "{r}");
        assert!(r.contains("int"), "{r}");
        assert!(r.contains("L1 3/4 hits"), "{r}");
    }
}
