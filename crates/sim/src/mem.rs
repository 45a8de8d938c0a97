//! Functional memory state and timing primitives.
//!
//! Functional state (what the bytes are) and timing state (when an access
//! completes) are deliberately separate: caches here are *tag arrays only*
//! — data is always read from the backing store, which is sound because the
//! simulated GPU has a single coherent view per launch.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiplicative hasher for page numbers. The page map sits on the
/// load/store hot path (every functional access resolves a page), and
/// SipHash costs more than the lookup itself; a Fibonacci-style multiply
/// is plenty for keys that are already well-spread page indices.
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// Sparse byte-addressed global memory.
///
/// Allocations are virtual; pages materialise on first touch (so a
/// "40 GB" device costs host memory only for what kernels actually use).
#[derive(Debug, Default)]
pub struct GlobalMem {
    pages: PageMap,
    next: u64,
    allocated: u64,
}

impl GlobalMem {
    /// Base of the allocation arena (non-zero so that null-ish addresses
    /// trap in tests).
    pub const BASE: u64 = 0x1000_0000;

    /// New empty memory.
    pub fn new() -> Self {
        GlobalMem {
            pages: PageMap::default(),
            next: Self::BASE,
            allocated: 0,
        }
    }

    /// Allocate `bytes` (256-byte aligned, like `cudaMalloc`).
    ///
    /// Zero-size allocations still consume one alignment granule so the
    /// returned address never aliases the next allocation (CUDA returns a
    /// unique pointer for `cudaMalloc(0)` too).
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let addr = self.next;
        self.next = (self.next + bytes.max(1) + 255) & !255;
        self.allocated += bytes;
        debug_assert_eq!(addr % 256, 0, "allocator returned unaligned pointer");
        debug_assert!(self.next > addr, "allocation must advance the arena");
        addr
    }

    /// Total bytes allocated so far (for OOM modelling).
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.pages
            .get(&(addr >> PAGE_SHIFT))
            .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Read `n ≤ 8` bytes little-endian.
    ///
    /// One page lookup when the access stays inside a page (the common
    /// case for naturally aligned loads); the per-byte fallback handles
    /// page-crossing accesses.
    pub fn read_scalar(&self, addr: u64, n: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n as usize <= PAGE_SIZE {
            let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) else {
                return 0;
            };
            le_read(&p[off..off + n as usize])
        } else {
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_u8(addr + i) as u64) << (8 * i);
            }
            v
        }
    }

    /// Write `n ≤ 8` bytes little-endian (page-crossing handled like
    /// [`Self::read_scalar`]).
    pub fn write_scalar(&mut self, addr: u64, n: u64, v: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n as usize <= PAGE_SIZE {
            let p = self.page_mut(addr);
            p[off..off + n as usize].copy_from_slice(&v.to_le_bytes()[..n as usize]);
        } else {
            for i in 0..n {
                self.write_u8(addr + i, (v >> (8 * i)) as u8);
            }
        }
    }

    /// [`Self::read_scalar`] at each of `addrs` in order, into `out` (a warp's
    /// lanes): one page lookup per run of same-page addresses instead of
    /// one per access.
    pub fn read_scalars(&self, n: u64, addrs: &[u64], out: &mut [u64]) {
        let (mut page, mut data) = (u64::MAX, None);
        for (o, &addr) in out.iter_mut().zip(addrs) {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            if off + n as usize > PAGE_SIZE {
                *o = self.read_scalar(addr, n);
                continue;
            }
            if addr >> PAGE_SHIFT != page {
                page = addr >> PAGE_SHIFT;
                data = self.pages.get(&page);
            }
            *o = data.map_or(0, |p| le_read(&p[off..off + n as usize]));
        }
    }

    /// [`Self::write_scalar`] of each `(addr, v)` in order (a warp's lanes;
    /// a later lane wins an overlap): one page lookup per run of same-page
    /// addresses instead of one per access.
    pub fn write_scalars(&mut self, n: u64, writes: &[(u64, u64)]) {
        let mut cur: Option<(u64, &mut [u8; PAGE_SIZE])> = None;
        for &(addr, v) in writes {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            if off + n as usize > PAGE_SIZE {
                cur = None;
                self.write_scalar(addr, n, v);
                continue;
            }
            let page = addr >> PAGE_SHIFT;
            let p = match cur.take() {
                Some((q, p)) if q == page => p,
                _ => self.page_mut(addr),
            };
            p[off..off + n as usize].copy_from_slice(&v.to_le_bytes()[..n as usize]);
            cur = Some((page, p));
        }
    }

    /// Bulk write: one page lookup and one slice copy per touched page.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut addr = addr;
        let mut data = data;
        while !data.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - off).min(data.len());
            self.page_mut(addr)[off..off + n].copy_from_slice(&data[..n]);
            addr += n as u64;
            data = &data[n..];
        }
    }

    /// Bulk read: page-at-a-time like [`Self::write_bytes`]; untouched
    /// pages read as zeros without materialising.
    pub fn read_bytes(&self, addr: u64, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.read_into(addr, &mut out);
        out
    }

    /// [`Self::read_bytes`] into a caller's buffer.
    pub fn read_into(&self, addr: u64, out: &mut [u8]) {
        let mut filled = 0usize;
        while filled < out.len() {
            let a = addr + filled as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let chunk = (PAGE_SIZE - off).min(out.len() - filled);
            let dst = &mut out[filled..filled + chunk];
            match self.pages.get(&(a >> PAGE_SHIFT)) {
                Some(p) => dst.copy_from_slice(&p[off..off + chunk]),
                None => dst.fill(0),
            }
            filled += chunk;
        }
    }
}

/// Little-endian value of up to 8 bytes.
fn le_read(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// A throughput limiter: a pipe that serves work at a fixed rate.
///
/// `acquire(now, cost)` returns the service *start* time — `max(now, free)`
/// — and pushes the pipe's free time forward by `cost`.  Composing
/// limiters along the access path yields both latency (queueing delay) and
/// sustained-bandwidth saturation.
#[derive(Debug, Clone, Default)]
pub struct Limiter {
    free: f64,
    busy: f64,
}

impl Limiter {
    /// New idle limiter.
    pub fn new() -> Self {
        Limiter {
            free: 0.0,
            busy: 0.0,
        }
    }

    /// Reserve `cost` cycles of service starting no earlier than `now`.
    pub fn acquire(&mut self, now: f64, cost: f64) -> f64 {
        debug_assert!(
            cost >= 0.0 && cost.is_finite() && now.is_finite(),
            "limiter acquire with bad cost {cost} at {now}"
        );
        let start = now.max(self.free);
        self.free = start + cost;
        self.busy += cost;
        start
    }

    /// When the pipe next becomes free.
    pub fn free_at(&self) -> f64 {
        self.free
    }

    /// Cumulative cycles of service reserved so far (occupancy numerator).
    pub fn busy_cycles(&self) -> f64 {
        self.busy
    }

    /// Backlog relative to `now` (how far ahead the queue extends).
    pub fn backlog(&self, now: f64) -> f64 {
        (self.free - now).max(0.0)
    }
}

/// Set-associative tag array with LRU replacement (timing only).
#[derive(Debug, Clone)]
pub struct TagArray {
    /// Line size, bytes.
    pub line: u64,
    sets: usize,
    ways: usize,
    /// `tags[set]` ordered most-recently-used first.
    tags: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl TagArray {
    /// Build from capacity / line / associativity.
    ///
    /// Associativity is clamped to the number of available lines: a tiny
    /// cache with `capacity/line < ways` would otherwise keep `ways` lines
    /// resident in its single set and model more capacity than configured.
    pub fn new(capacity: u64, line: u64, ways: usize) -> Self {
        let lines = (capacity / line).max(1) as usize;
        let ways = ways.clamp(1, lines);
        let sets = (lines / ways).max(1);
        TagArray {
            line,
            sets,
            ways,
            tags: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Probe-and-fill: returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let lineaddr = addr / self.line;
        let set = (lineaddr as usize) % self.sets;
        let ways = self.ways;
        let entry = &mut self.tags[set];
        if let Some(pos) = entry.iter().position(|&t| t == lineaddr) {
            let t = entry.remove(pos);
            entry.insert(0, t);
            self.hits += 1;
            true
        } else {
            entry.insert(0, lineaddr);
            entry.truncate(ways);
            self.misses += 1;
            false
        }
    }

    /// Probe without filling or stat updates.
    pub fn contains(&self, addr: u64) -> bool {
        let lineaddr = addr / self.line;
        let set = (lineaddr as usize) % self.sets;
        self.tags[set].contains(&lineaddr)
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Coalesce a warp's per-lane addresses into distinct 32-byte sectors,
/// filling `out` with the sector base addresses (deduplicated,
/// order-preserving). Taking the buffer lets the per-instruction hot path
/// reuse one allocation across every access of a run.
pub fn coalesce_sectors_into(addrs: impl Iterator<Item = u64>, width: u64, out: &mut Vec<u64>) {
    out.clear();
    // A zero-width access still touches its base sector; without the clamp
    // `a + width - 1` wraps below and panics in debug builds.
    let width = width.max(1);
    // Largest sector pushed so far: anything above it is new, and the last
    // one pushed is not, so ascending lanes (the common case) never scan.
    let mut max = 0u64;
    for a in addrs {
        // An access may straddle sector boundaries (16B at offset 24).
        let first = a / 32;
        let last = (a + width - 1) / 32;
        for s in first..=last {
            let sec = s * 32;
            let new = if out.is_empty() || sec > max {
                true
            } else {
                out.last() != Some(&sec) && !out.contains(&sec)
            };
            if new {
                out.push(sec);
                max = max.max(sec);
            }
        }
    }
}

/// Allocating convenience wrapper around [`coalesce_sectors_into`].
pub fn coalesce_sectors(addrs: impl Iterator<Item = u64>, width: u64) -> Vec<u64> {
    let mut sectors: Vec<u64> = Vec::with_capacity(32);
    coalesce_sectors_into(addrs, width, &mut sectors);
    sectors
}

/// Shared-memory bank-conflict degree: the maximum number of *distinct*
/// 4-byte words in the same bank across the active lanes (32 banks × 4 B).
///
/// A word maps to exactly one bank, so the per-bank distinct-word counts
/// can be kept in stack buffers: ≤32 lanes × ≤4 words (a `b128` access)
/// bounds the distinct set at 128 — no allocation on the shared-memory
/// hot path.
pub fn bank_conflict_degree(addrs: impl Iterator<Item = u64>, width: u64) -> u32 {
    let mut seen = [0u64; 128];
    let mut n = 0usize;
    let mut per_bank = [0u32; 32];
    // Wide accesses occupy multiple words; a zero-width access degrades to
    // a single-word probe (mirrors the clamp in `coalesce_sectors_into`).
    let words = (width.max(1) / 4).max(1);
    for a in addrs {
        for w in 0..words {
            let word = a / 4 + w;
            if !seen[..n].contains(&word) {
                debug_assert!(n < seen.len(), "conflict probe wider than a warp");
                if n < seen.len() {
                    seen[n] = word;
                    n += 1;
                }
                per_bank[(word % 32) as usize] += 1;
            }
        }
    }
    per_bank.iter().copied().max().unwrap_or(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn global_roundtrip() {
        let mut g = GlobalMem::new();
        let a = g.alloc(1024);
        assert_eq!(a % 256, 0);
        g.write_scalar(a + 100, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(g.read_scalar(a + 100, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(g.read_scalar(a + 100, 4), 0xcafe_f00d);
        // Cross-page write.
        let b = g.alloc(8192);
        g.write_scalar(b + 4094, 8, u64::MAX);
        assert_eq!(g.read_scalar(b + 4094, 8), u64::MAX);
        // Untouched memory reads zero.
        assert_eq!(g.read_scalar(a + 900, 8), 0);
    }

    #[test]
    fn alloc_is_disjoint() {
        let mut g = GlobalMem::new();
        let a = g.alloc(100);
        let b = g.alloc(100);
        assert!(b >= a + 100);
        assert_eq!(g.allocated(), 200);
    }

    #[test]
    fn zero_size_allocs_are_distinct_and_aligned() {
        let mut g = GlobalMem::new();
        let a = g.alloc(0);
        let b = g.alloc(0);
        let c = g.alloc(8);
        assert_ne!(a, b, "alloc(0) must not alias the next allocation");
        assert_ne!(b, c);
        for p in [a, b, c] {
            assert_eq!(p % 256, 0, "pointer {p:#x} not 256-byte aligned");
        }
        // Accounting still reflects requested bytes, not padding.
        assert_eq!(g.allocated(), 8);
    }

    #[test]
    fn bulk_rw_crosses_pages() {
        let mut g = GlobalMem::new();
        let a = g.alloc(3 * PAGE_SIZE as u64);
        // Start mid-page so the copy spans three pages.
        let base = a + PAGE_SIZE as u64 - 100;
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 50).map(|i| (i * 7 + 3) as u8).collect();
        g.write_bytes(base, &data);
        assert_eq!(g.read_bytes(base, data.len()), data);
        // Interior slice, offset so chunk boundaries differ from the write.
        assert_eq!(g.read_bytes(base + 37, 4096), data[37..37 + 4096]);
        // Reads from never-touched pages come back zeroed.
        let hole = g.alloc(2 * PAGE_SIZE as u64);
        assert!(g
            .read_bytes(hole + 10, PAGE_SIZE + 20)
            .iter()
            .all(|&b| b == 0));
        // Scalar and bulk paths agree.
        assert_eq!(
            g.read_scalar(base, 8),
            u64::from_le_bytes(data[..8].try_into().unwrap())
        );
    }

    #[test]
    fn limiter_serialises() {
        let mut l = Limiter::new();
        assert_eq!(l.acquire(10.0, 5.0), 10.0);
        assert_eq!(l.acquire(10.0, 5.0), 15.0); // queued behind first
        assert_eq!(l.acquire(100.0, 1.0), 100.0); // idle gap
        assert_eq!(l.backlog(100.5), 0.5);
    }

    #[test]
    fn tag_array_lru() {
        let mut t = TagArray::new(4 * 128, 128, 4); // 1 set, 4 ways
        assert!(!t.access(0));
        assert!(!t.access(128));
        assert!(!t.access(256));
        assert!(!t.access(384));
        assert!(t.access(0)); // still resident
        assert!(!t.access(512)); // evicts LRU (128)
        assert!(!t.access(128));
        assert_eq!(t.stats().0, 1);
    }

    #[test]
    fn tiny_cache_clamps_ways_to_lines() {
        // One line of capacity but nominally 8-way: without the clamp the
        // single set would keep 8 resident lines (8x the configured size).
        let mut t = TagArray::new(128, 128, 8);
        assert!(!t.access(0));
        assert!(!t.access(128)); // must evict line 0
        assert!(!t.access(0), "line 0 survived in a 1-line cache");
        // Non-divisible geometry: 3 lines, 2 ways -> at most 2 resident.
        let mut t = TagArray::new(3 * 128, 128, 2);
        assert!(!t.access(0));
        assert!(!t.access(128));
        assert!(t.access(0));
        // A degenerate capacity below one line still behaves (1 line).
        let mut t = TagArray::new(64, 128, 4);
        assert!(!t.access(0));
        assert!(!t.access(128));
        assert!(!t.access(0));
    }

    #[test]
    fn coalescing() {
        // 32 lanes × 4B contiguous = 4 sectors of 32B.
        let addrs = (0..32u64).map(|l| l * 4);
        assert_eq!(coalesce_sectors(addrs, 4).len(), 4);
        // Stride-32B: every lane its own sector.
        let addrs = (0..32u64).map(|l| l * 32);
        assert_eq!(coalesce_sectors(addrs, 4).len(), 32);
        // float4 contiguous: 32 × 16B = 16 sectors.
        let addrs = (0..32u64).map(|l| l * 16);
        assert_eq!(coalesce_sectors(addrs, 16).len(), 16);
        // Straddling access counts both sectors.
        assert_eq!(coalesce_sectors([24u64].into_iter(), 16).len(), 2);
    }

    #[test]
    fn bank_conflicts() {
        // Contiguous 4B: conflict-free.
        assert_eq!(bank_conflict_degree((0..32u64).map(|l| l * 4), 4), 1);
        // Stride 128B (= 32 words): all lanes hit bank 0 with distinct words.
        assert_eq!(bank_conflict_degree((0..32u64).map(|l| l * 128), 4), 32);
        // Same word in same bank: broadcast, no conflict.
        assert_eq!(bank_conflict_degree((0..32u64).map(|_| 0), 4), 1);
        // Stride 8B: 2-way conflict.
        assert_eq!(bank_conflict_degree((0..32u64).map(|l| l * 8), 4), 2);
    }

    /// The coalescer before its fast path: the oracle for the property below.
    fn coalesce_reference(addrs: &[u64], width: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let width = width.max(1);
        for &a in addrs {
            for s in a / 32..=(a + width - 1) / 32 {
                if !out.contains(&(s * 32)) {
                    out.push(s * 32);
                }
            }
        }
        out
    }

    /// A warp's lane addresses: random, strided ascending (straddling and
    /// repeating strides included), or strided in a random lane order.
    fn lanes() -> impl Strategy<Value = Vec<u64>> {
        let strided = |(base, stride): (u64, u64)| (0..32).map(move |l| base + l * stride);
        prop_oneof![
            vec(0u64..1 << 14, 0..33),
            (0u64..1 << 14, 0u64..80).prop_map(move |bs| strided(bs).collect()),
            (0u64..1 << 14, 0u64..80, vec(0u64..1 << 20, 32)).prop_map(move |(b, s, keys)| {
                let mut keyed: Vec<(u64, u64)> = keys.into_iter().zip(strided((b, s))).collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(_, a)| a).collect()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// Same sectors in the same order (it feeds L1/L2 LRU order).
        #[test]
        fn coalescer_matches_reference(
            addrs in lanes(),
            width in prop_oneof![Just(0u64), Just(4), Just(8), Just(16), 0u64..40],
        ) {
            let mut out = vec![7];
            coalesce_sectors_into(addrs.iter().copied(), width, &mut out);
            prop_assert_eq!(out, coalesce_reference(&addrs, width));
        }

        /// The page-memoised lane reader and writer agree with one scalar
        /// access per lane, page-crossing lanes and overlaps included.
        #[test]
        fn lane_reader_and_writer_match_scalar_path(
            offs in vec(0u64..3 * PAGE_SIZE as u64, 0..65),
            n in 1u64..9,
            seed in 0u64..u64::MAX,
        ) {
            let (mut bulk, mut scalar) = (GlobalMem::new(), GlobalMem::new());
            let base = bulk.alloc(4 * PAGE_SIZE as u64);
            scalar.alloc(4 * PAGE_SIZE as u64);
            let writes: Vec<(u64, u64)> = offs
                .iter()
                .enumerate()
                .map(|(i, &o)| (base + o, seed.rotate_left(i as u32) ^ o))
                .collect();
            bulk.write_scalars(n, &writes);
            for &(a, v) in &writes {
                scalar.write_scalar(a, n, v);
            }
            let span = 4 * PAGE_SIZE;
            prop_assert_eq!(bulk.read_bytes(base, span), scalar.read_bytes(base, span));
            prop_assert_eq!(bulk.pages.len(), scalar.pages.len());
            // Written lanes, then as many in pages nobody touched.
            let untouched = offs.iter().map(|&o| base + span as u64 + o);
            let addrs: Vec<u64> = writes.iter().map(|&(a, _)| a).chain(untouched).collect();
            let mut got = [0u64; 128];
            bulk.read_scalars(n, &addrs, &mut got);
            for (&g, &a) in got.iter().zip(&addrs) {
                prop_assert_eq!(g, scalar.read_scalar(a, n));
            }
        }
    }

    #[test]
    fn zero_width_access_is_safe() {
        // Formerly `a + width - 1` wrapped in debug builds; a malformed
        // width now degrades to a single-byte probe.
        assert_eq!(coalesce_sectors([0u64].into_iter(), 0).len(), 1);
        assert_eq!(coalesce_sectors((0..32u64).map(|l| l * 32), 0).len(), 32);
        assert_eq!(bank_conflict_degree([0u64].into_iter(), 0), 1);
        assert_eq!(bank_conflict_degree((0..32u64).map(|l| l * 128), 0), 32);
    }
}
