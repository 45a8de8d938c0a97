//! Per-PC (per-kernel-instruction) sampling: issue counts, binding-stall
//! attribution and issue-wait histograms.
//!
//! The engine keeps one accumulator per kernel instruction while a sink
//! that wants [`crate::Wants::pc_totals`] is attached.  Each
//! scheduler-slot cycle that stalls is charged to the *binding* warp's
//! current PC (the minimum-wakeup warp whose reason the slot histogram
//! records), so summing the per-PC buckets reproduces the launch's
//! [`crate::StallSummary::stalled`] totals exactly — the same conservation
//! idea as the per-slot invariant, projected onto the instruction axis.

use crate::{TraceSink, Wants, N_SLOT_REASONS};

/// Number of log2-spaced buckets in the issue-wait histogram.
pub const N_WAIT_BUCKETS: usize = 16;

/// Histogram bucket for a closed stall span of `cycles` (≥ 1) cycles:
/// `floor(log2(cycles))`, saturating at the last bucket.
pub fn wait_bucket(cycles: u64) -> usize {
    if cycles <= 1 {
        0
    } else {
        ((63 - cycles.leading_zeros()) as usize).min(N_WAIT_BUCKETS - 1)
    }
}

/// Human-readable range covered by a wait-histogram bucket.
pub fn wait_bucket_label(bucket: usize) -> String {
    if bucket == 0 {
        "1".to_string()
    } else if bucket >= N_WAIT_BUCKETS - 1 {
        format!(">={}", 1u64 << (N_WAIT_BUCKETS - 1))
    } else {
        format!("{}-{}", 1u64 << bucket, (1u64 << (bucket + 1)) - 1)
    }
}

/// End-of-wave accounting for one kernel instruction (one PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcTotals {
    /// Kernel instruction index.
    pub pc: u32,
    /// Instruction mnemonic.
    pub op: &'static str,
    /// Number of warp-issues of this instruction.
    pub issues: u64,
    /// Slot-cycles stalled with this PC as the binding instruction,
    /// bucketed by [`crate::StallReason::SLOT_REASONS`].
    pub stalled: [u64; N_SLOT_REASONS],
    /// Histogram of closed stall-span lengths immediately preceding each
    /// issue of this PC (log2 buckets, see [`wait_bucket`]).
    pub wait_hist: [u64; N_WAIT_BUCKETS],
}

/// Accumulated per-PC statistics for one kernel instruction, merged over
/// all waves of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcStat {
    /// Kernel instruction index.
    pub pc: u32,
    /// Instruction mnemonic.
    pub op: &'static str,
    /// Number of warp-issues.
    pub issues: u64,
    /// Binding-stall slot-cycles by reason bucket.
    pub stalled: [u64; N_SLOT_REASONS],
    /// Issue-wait histogram (log2 buckets).
    pub wait_hist: [u64; N_WAIT_BUCKETS],
}

impl PcStat {
    /// Sum of all stall buckets.
    pub fn stalled_total(&self) -> u64 {
        self.stalled.iter().sum()
    }

    /// Mean closed-stall-span length before an issue (0 when the
    /// instruction never waited).  The histogram stores log2 buckets, so
    /// the mean uses each bucket's geometric midpoint — an estimate, not
    /// an exact average.
    pub fn approx_mean_wait(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0.0f64);
        for (b, &count) in self.wait_hist.iter().enumerate() {
            n += count;
            let mid = if b == 0 {
                1.0
            } else {
                ((1u64 << b) as f64 * ((1u64 << (b + 1)) as f64)).sqrt()
            };
            sum += count as f64 * mid;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// A [`TraceSink`] that aggregates per-PC issue counts, binding-stall
/// cycles and issue-wait histograms — the data behind the profiler's
/// Source/PC view.
///
/// Wants only the aggregate [`TraceSink::pc_totals`] callback (emitted once
/// per PC per wave), so a sampled run builds no per-event records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcSampleSink {
    /// Per-instruction statistics, sorted by `pc`.
    pub pcs: Vec<PcStat>,
    /// Number of waves merged.
    pub waves: u32,
}

impl PcSampleSink {
    /// Statistics for one instruction, if it was ever sampled.
    pub fn get(&self, pc: u32) -> Option<&PcStat> {
        self.pcs
            .binary_search_by_key(&pc, |s| s.pc)
            .ok()
            .map(|i| &self.pcs[i])
    }

    /// Total issues over all PCs.
    pub fn total_issues(&self) -> u64 {
        self.pcs.iter().map(|s| s.issues).sum()
    }

    /// Binding-stall slot-cycles summed over all PCs, by reason bucket.
    /// Equals the launch's [`crate::StallSummary::stalled`] by
    /// construction (both views weight the same slot outcomes).
    pub fn stalled_by_reason(&self) -> [u64; N_SLOT_REASONS] {
        let mut out = [0u64; N_SLOT_REASONS];
        for s in &self.pcs {
            for (o, v) in out.iter_mut().zip(s.stalled.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Total binding-stall slot-cycles over all PCs and reasons.
    pub fn stalled_total(&self) -> u64 {
        self.stalled_by_reason().iter().sum()
    }

    /// The `n` PCs with the most binding-stall cycles, descending
    /// (ties broken by ascending PC).
    pub fn hotspots(&self, n: usize) -> Vec<&PcStat> {
        let mut v: Vec<&PcStat> = self.pcs.iter().collect();
        v.sort_by(|a, b| {
            b.stalled_total()
                .cmp(&a.stalled_total())
                .then(a.pc.cmp(&b.pc))
        });
        v.truncate(n);
        v
    }
}

impl TraceSink for PcSampleSink {
    fn wants(&self) -> Wants {
        Wants {
            pc_totals: true,
            ..Wants::NONE
        }
    }

    fn begin_wave(&mut self, _base_cycle: u64, _sms: u32, _slots_per_sm: u32) {
        self.waves += 1;
    }

    fn pc_totals(&mut self, t: &PcTotals) {
        match self.pcs.binary_search_by_key(&t.pc, |s| s.pc) {
            Ok(i) => {
                let s = &mut self.pcs[i];
                s.issues += t.issues;
                for (a, b) in s.stalled.iter_mut().zip(t.stalled.iter()) {
                    *a += b;
                }
                for (a, b) in s.wait_hist.iter_mut().zip(t.wait_hist.iter()) {
                    *a += b;
                }
            }
            Err(i) => self.pcs.insert(
                i,
                PcStat {
                    pc: t.pc,
                    op: t.op,
                    issues: t.issues,
                    stalled: t.stalled,
                    wait_hist: t.wait_hist,
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StallReason;

    fn totals(pc: u32, issues: u64, scoreboard: u64) -> PcTotals {
        let mut stalled = [0u64; N_SLOT_REASONS];
        stalled[StallReason::Scoreboard.bucket()] = scoreboard;
        let mut wait_hist = [0u64; N_WAIT_BUCKETS];
        wait_hist[wait_bucket(scoreboard.max(1))] = issues;
        PcTotals {
            pc,
            op: "ld",
            issues,
            stalled,
            wait_hist,
        }
    }

    #[test]
    fn wait_buckets_are_log2() {
        assert_eq!(wait_bucket(1), 0);
        assert_eq!(wait_bucket(2), 1);
        assert_eq!(wait_bucket(3), 1);
        assert_eq!(wait_bucket(4), 2);
        assert_eq!(wait_bucket(1023), 9);
        assert_eq!(wait_bucket(u64::MAX), N_WAIT_BUCKETS - 1);
        assert_eq!(wait_bucket_label(0), "1");
        assert_eq!(wait_bucket_label(1), "2-3");
        assert_eq!(wait_bucket_label(N_WAIT_BUCKETS - 1), ">=32768");
    }

    #[test]
    fn merges_across_waves_sorted_by_pc() {
        let mut s = PcSampleSink::default();
        s.begin_wave(0, 1, 4);
        s.pc_totals(&totals(2, 5, 100));
        s.pc_totals(&totals(4, 1, 7));
        s.begin_wave(100, 1, 4);
        s.pc_totals(&totals(2, 5, 100));
        s.pc_totals(&totals(0, 3, 0));
        assert_eq!(s.waves, 2);
        assert_eq!(s.pcs.len(), 3);
        assert!(s.pcs.windows(2).all(|w| w[0].pc < w[1].pc));
        assert_eq!(s.get(2).unwrap().issues, 10);
        assert_eq!(
            s.get(2).unwrap().stalled[StallReason::Scoreboard.bucket()],
            200
        );
        assert_eq!(s.total_issues(), 14);
        assert_eq!(s.stalled_total(), 207);
        assert_eq!(s.hotspots(1)[0].pc, 2);
    }

    #[test]
    fn approx_mean_wait_tracks_bucket_midpoints() {
        let mut st = PcStat {
            pc: 0,
            op: "ld",
            issues: 2,
            stalled: [0; N_SLOT_REASONS],
            wait_hist: [0; N_WAIT_BUCKETS],
        };
        assert_eq!(st.approx_mean_wait(), 0.0);
        st.wait_hist[0] = 2; // two 1-cycle waits
        assert!((st.approx_mean_wait() - 1.0).abs() < 1e-12);
        st.wait_hist[8] = 2; // plus two waits in [256, 511]
        let mid = (256.0f64 * 512.0).sqrt();
        assert!((st.approx_mean_wait() - (2.0 + 2.0 * mid) / 4.0).abs() < 1e-9);
    }
}
