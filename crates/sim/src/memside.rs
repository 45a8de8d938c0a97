//! The memory side: everything the SMs of one run share.
//!
//! The paper dissects memory at two levels — what one SM owns (L1/shared,
//! the DSM port) and what all SMs contend for (L2, DRAM, TLB).  This module
//! is the second level: global memory's bytes, the L2 and TLB tag arrays,
//! and the L2/DRAM bandwidth queues.  Its fields are private and SM code
//! reaches it only through [`Engine::shared`] (DESIGN.md §4g).
//!
//! The SM side (`lsu.rs`) coalesces an access and looks it up in its own
//! L1; what it hands over is "these sectors, of which these lines missed
//! L1, at time `start`", and what it gets back is a completion time.  Byte,
//! energy and TLB counts land in the caller's per-SM [`Metrics`], so the
//! memory side is also the single place the shared levels are counted.

use super::{CacheState, Stalled, Tracer, DRAM_QUEUE_DEPTH};
use crate::device::DeviceConfig;
use crate::mem::{GlobalMem, Limiter, TagArray};
use crate::metrics::Metrics;
use crate::power;
use hopper_trace::StallReason;

/// One coalesced access below L1, as the issuing SM describes it.
pub(super) struct Fetch<'r> {
    /// Issuing warp (unit-span attribution only).
    pub warp: usize,
    /// When the request leaves the SM's L1 port.
    pub start: f64,
    /// Per-lane access width, bytes (selects the L2 bandwidth column).
    pub width: u64,
    /// Every 32-byte sector the access touches (all are translated).
    pub sectors: &'r [u64],
    /// The 128-byte lines L1 did not serve.
    pub missed: &'r [u64],
}

/// Run-shared memory state (see the module docs).
pub(super) struct MemSide<'a> {
    dev: &'a DeviceConfig,
    global: &'a mut GlobalMem,
    l2: &'a mut TagArray,
    tlb: &'a mut TagArray,
    l2_port: Limiter,
    dram_port: Limiter,
    /// Fraction of device L2 / DRAM bandwidth this run's SM subset owns.
    l2_bw_scale: f64,
    dram_bw_scale: f64,
    /// 2 MiB pages of the access in flight; kept so the per-access hot
    /// path allocates nothing once warm.
    pages: Vec<u64>,
    l2_stats0: (u64, u64),
    /// Debug-only shadow count of L2 tag lookups, cross-checked against
    /// the hit/miss delta at end of wave.
    #[cfg(debug_assertions)]
    dbg_l2_lookups: u64,
}

impl<'a> MemSide<'a> {
    /// Split the persistent cache state: the shared levels come here, the
    /// per-SM L1 tag arrays go back to the engine's SM side.
    pub(super) fn new(
        dev: &'a DeviceConfig,
        (l2_bw_scale, dram_bw_scale): (f64, f64),
        global: &'a mut GlobalMem,
        caches: &'a mut CacheState,
    ) -> (Self, &'a mut [TagArray]) {
        let side = MemSide {
            dev,
            global,
            l2_stats0: caches.l2.stats(),
            l2: &mut caches.l2,
            tlb: &mut caches.tlb,
            l2_port: Limiter::new(),
            dram_port: Limiter::new(),
            l2_bw_scale,
            dram_bw_scale,
            pages: Vec::new(),
            #[cfg(debug_assertions)]
            dbg_l2_lookups: 0,
        };
        (side, &mut caches.l1)
    }

    /// Finite-MSHR backpressure: stall issue while the L2/DRAM queues are
    /// too far ahead of `now` to accept another request.
    #[inline]
    pub(super) fn backpressure(&self, now: f64) -> Result<(), Stalled> {
        // The L2 window must exceed the L2 hit latency or in-flight
        // requests can never cover it (MLP starvation).
        let l2_window = 2.0 * self.dev.l2_latency as f64;
        for (port, window) in [
            (&self.l2_port, l2_window),
            (&self.dram_port, DRAM_QUEUE_DEPTH),
        ] {
            let lag = port.backlog(now);
            if lag > window {
                let until = (now + lag - window) as u64;
                return Err(Stalled(until, StallReason::MioQueueFull, None));
            }
        }
        Ok(())
    }

    /// Serve one access below L1: translate every touched page, look the
    /// missed lines up in L2, stream L2 misses from DRAM.  Returns the
    /// time the slowest line is back (0 when nothing missed) and the page
    /// walk penalty — the walk precedes the data access, so the caller
    /// adds it to whichever level ultimately serves the request.
    pub(super) fn fetch(&mut self, f: &Fetch, m: &mut Metrics, tr: &mut Tracer) -> (f64, f64) {
        let dev = self.dev;
        let mut tlb_penalty = 0.0;
        self.pages.clear();
        self.pages.extend(f.sectors.iter().map(|&s| s >> 21));
        self.pages.sort_unstable();
        self.pages.dedup();
        for &page in &self.pages {
            if !self.tlb.access(page << 21) {
                tlb_penalty = dev.tlb_miss_latency as f64;
                m.tlb_misses += 1;
            }
        }
        let mut done = 0.0f64;
        for &line in f.missed {
            let hit = self.l2.access(line * 128);
            #[cfg(debug_assertions)]
            {
                self.dbg_l2_lookups += 1;
            }
            done = done.max(if hit {
                f.start + dev.l2_latency as f64
            } else {
                let cost = 128.0 / (dev.dram_bw / dev.clock_hz * self.dram_bw_scale);
                let s = self.dram_port.acquire(f.start, cost);
                tr.unit(u32::MAX, "dram", f.warp, s, cost);
                m.dram_bytes += 128;
                m.energy_j += 128.0 * power::DRAM_ENERGY_PER_BYTE_J;
                s + cost + dev.dram_latency as f64
            });
        }
        if !f.missed.is_empty() {
            let bytes = f.missed.len() as u64 * 128;
            let cost = bytes as f64 / (dev.l2_bw.for_width(f.width) * self.l2_bw_scale);
            let s = self.l2_port.acquire(f.start, cost);
            tr.unit(u32::MAX, "l2_port", f.warp, s, cost);
            m.l2_bytes += bytes;
            m.energy_j += bytes as f64 * power::L2_ENERGY_PER_BYTE_J;
            done = done.max(s + cost + dev.l2_latency as f64 - 1.0);
        }
        (done, tlb_penalty)
    }

    /// A warp's `atom.global` (atomics resolve at L2): occupy the L2 port
    /// for `lanes` 4-byte operations and return the completion time.
    pub(super) fn atomic(
        &mut self,
        now: f64,
        lanes: usize,
        warp: usize,
        m: &mut Metrics,
        tr: &mut Tracer,
    ) -> f64 {
        let cost = (lanes * 4) as f64 / (self.dev.l2_bw.b4 * self.l2_bw_scale);
        let start = self.l2_port.acquire(now, cost);
        tr.unit(u32::MAX, "l2_port", warp, start, cost);
        m.l2_bytes += lanes as u64 * 4;
        start + cost + self.dev.l2_latency as f64
    }

    /// Global memory's bytes (functional reads and writes).
    pub(super) fn global(&mut self) -> &mut GlobalMem {
        self.global
    }

    /// End of run: report the L2 hits and misses since it began.
    pub(super) fn finish(&self, m: &mut Metrics) {
        let (hits, misses) = self.l2.stats();
        m.l2_hits = hits - self.l2_stats0.0;
        m.l2_misses = misses - self.l2_stats0.1;
        #[cfg(debug_assertions)]
        assert_eq!(
            m.l2_hits + m.l2_misses,
            self.dbg_l2_lookups,
            "L2 hits+misses diverged from tag lookups"
        );
    }

    /// The shared bandwidth queues by trace name (end-of-wave occupancy
    /// and the debug audit).
    pub(super) fn ports(&self) -> [(&'static str, &Limiter); 2] {
        [("l2_port", &self.l2_port), ("dram", &self.dram_port)]
    }
}
