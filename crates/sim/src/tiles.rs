//! Tile-register storage and the functional tensor-core datapath.
//!
//! A [`Tile`] abstracts a matrix fragment distributed over a warp's (or
//! warp group's) registers, or a `wgmma` shared-memory matrix descriptor.
//! The per-lane fragment layout is not a measured quantity in the paper, so
//! tiles store whole matrices; the *numerics* (accumulator precision,
//! FP8/FP16/TF32 rounding, 2:4 sparsity, integer wrap) are bit-faithful via
//! `hopper-numerics`.

use hopper_isa::{DType, MmaDesc, TilePattern};
use hopper_numerics::{AccumMode, Bf16, Fp8E4M3, Fp8E5M2, SoftFloat, Sparse24, Tf32, F16};

/// A matrix fragment: `rows × cols` elements of `dtype`.
///
/// Float elements are stored pre-rounded into their format (so `data`
/// holds exactly representable values); integer elements are stored as
/// their numeric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Element type.
    pub dtype: DType,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major values.
    pub data: Vec<f64>,
}

/// Round an `f64` into `dtype` (identity for integer types, which are
/// assumed in-range).
pub fn round_to(dtype: DType, x: f64) -> f64 {
    match dtype {
        DType::F16 => F16::from_f64(x).to_f64(),
        DType::BF16 => Bf16::from_f64(x).to_f64(),
        DType::TF32 => Tf32::from_f64(x).to_f64(),
        DType::E4M3 => Fp8E4M3::from_f64(x).to_f64(),
        DType::E5M2 => Fp8E5M2::from_f64(x).to_f64(),
        DType::F32 => x as f32 as f64,
        DType::F64 => x,
        DType::S8 => (x as i64).clamp(-128, 127) as f64,
        DType::S4 => (x as i64).clamp(-8, 7) as f64,
        DType::B1 => {
            if x != 0.0 {
                1.0
            } else {
                0.0
            }
        }
        DType::S32 => (x as i64 as i32) as f64,
    }
}

impl Tile {
    /// Zero tile.
    pub fn zeros(dtype: DType, rows: usize, cols: usize) -> Self {
        Tile {
            dtype,
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tile that carries its shape but no values: what replay keeps, and
    /// what a tile whose values nothing reads holds (`Kernel::tile_uses`).
    pub fn shape(dtype: DType, rows: usize, cols: usize) -> Self {
        Tile {
            dtype,
            rows,
            cols,
            data: Vec::new(),
        }
    }

    /// Whether the tile holds its values, not just its shape.
    pub fn has_values(&self) -> bool {
        self.data.len() == self.rows * self.cols
    }

    /// Build from a fill pattern.
    pub fn from_pattern(dtype: DType, rows: usize, cols: usize, pattern: TilePattern) -> Self {
        let mut t = Self::zeros(dtype, rows, cols);
        match pattern {
            TilePattern::Zero => {}
            TilePattern::Identity => {
                for i in 0..rows.min(cols) {
                    t.data[i * cols + i] = round_to(dtype, 1.0);
                }
            }
            TilePattern::Random { seed } => {
                let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for v in &mut t.data {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                    *v = round_to(
                        dtype,
                        if dtype.is_float() {
                            u
                        } else {
                            (u * 8.0).round()
                        },
                    );
                }
            }
            TilePattern::Sparse24Random { seed } => {
                let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for (i, v) in t.data.iter_mut().enumerate() {
                    // Two non-zeros per group of four along the row.
                    if i % 4 < 2 {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let u = ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
                        *v = round_to(
                            dtype,
                            if dtype.is_float() {
                                u
                            } else {
                                (u * 8.0).round()
                            },
                        );
                    }
                }
            }
        }
        t
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Fraction of non-zero elements — the data-activity proxy used by the
    /// power model ("Rand" draws near the 350 W limit, "Zero" does not).
    pub fn activity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|v| **v != 0.0).count() as f64 / self.data.len() as f64
    }

    /// Bytes this tile occupies in memory.
    pub fn bytes(&self) -> u64 {
        (self.rows * self.cols) as u64 * self.dtype.bits() as u64 / 8
    }
}

/// Error from the functional tensor-core datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcError(pub String);

impl core::fmt::Display for TcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for TcError {}

fn accum_mode(cd: DType) -> AccumMode {
    match cd {
        DType::F16 => AccumMode::F16,
        DType::S32 => AccumMode::I32,
        _ => AccumMode::F32,
    }
}

/// Execute `D = A·B + C` functionally for a tensor-core descriptor.
///
/// `A` must be `m×k` (dense values; sparse instructions require 2:4
/// structure and prune through the metadata path), `B` is `k×n`, `C` is
/// `m×n`.  Returns the `m×n` D tile in the destination dtype.
pub fn execute_mma(desc: &MmaDesc, a: &Tile, b: &Tile, c: &Tile) -> Result<Tile, TcError> {
    check_shapes(desc, a, b, c)?;
    let (m, n, k) = (desc.m as usize, desc.n as usize, desc.k as usize);
    let mode = accum_mode(desc.cd);
    let mut d = Tile::zeros(desc.cd, m, n);

    if mode == AccumMode::I32 {
        // Integer / binary path: widened products, wrapping i32 accumulate.
        for i in 0..m {
            for j in 0..n {
                let mut acc = c.get(i, j) as i64 as i32;
                if desc.ab == DType::B1 {
                    // AND + POPC over K bits.
                    let mut pop = 0i32;
                    for kk in 0..k {
                        let x = a.get(i, kk) != 0.0;
                        let y = b.get(kk, j) != 0.0;
                        if x && y {
                            pop += 1;
                        }
                    }
                    acc = acc.wrapping_add(pop);
                } else {
                    for kk in 0..k {
                        let p =
                            (a.get(i, kk) as i64 as i32).wrapping_mul(b.get(kk, j) as i64 as i32);
                        if desc.sparse && !sparse_position_kept(a, i, kk) {
                            continue;
                        }
                        acc = acc.wrapping_add(p);
                    }
                }
                d.data[i * n + j] = acc as f64;
            }
        }
        return Ok(d);
    }

    // B is consumed column-wise; hoist it into one column-major copy per
    // call (and, for sparse descriptors, do the F16 carrier conversion
    // once) instead of re-reading with stride `n` — or, worse,
    // re-converting a fresh `Vec` — per output element. Purely a layout
    // change: every product sees the same values in the same order.
    let mut bt = vec![0.0f64; n * k];
    for kk in 0..k {
        for j in 0..n {
            bt[j * k + kk] = b.get(kk, j);
        }
    }
    // Sparse path: the F16 carriers round-trip through f64 once up front
    // (`F16::from_f64(v).to_f64()` is pure, so converting early yields the
    // exact values `dot_dense` would see element by element).
    let btf: Vec<f64> = if desc.sparse {
        bt.iter().map(|&v| F16::from_f64(v).to_f64()).collect()
    } else {
        Vec::new()
    };

    let mut surv: Vec<(usize, f64)> = Vec::with_capacity(k / 2);
    for i in 0..m {
        let arow = &a.data[i * k..(i + 1) * k];
        if desc.sparse {
            surv.clear();
            row_survivors(desc, a, i, |pos, v| surv.push((pos, v.to_f64())))?;
        }
        for j in 0..n {
            let acc = if desc.sparse {
                // `Sparse24::dot_dense` inlined over the pre-converted
                // survivors (same products, same f32 accumulation chain);
                // fold C in per mode.
                let bcol = &btf[j * k..(j + 1) * k];
                let mut acc32 = 0.0f32;
                for &(pos, v) in &surv {
                    acc32 = ((acc32 as f64) + v * bcol[pos]) as f32;
                }
                let dot = acc32 as f64;
                match mode {
                    AccumMode::F16 => F16::from_f64(c.get(i, j) + dot).to_f64(),
                    _ => ((c.get(i, j) as f32 as f64) + dot) as f32 as f64,
                }
            } else {
                let bcol = &bt[j * k..(j + 1) * k];
                // Dense: products formed exactly, running sum rounded
                // per the accumulator precision each step.
                match mode {
                    AccumMode::F32 => {
                        let mut a32 = c.get(i, j) as f32;
                        for (kk, &av) in arow.iter().enumerate() {
                            a32 = ((a32 as f64) + av * bcol[kk]) as f32;
                        }
                        a32 as f64
                    }
                    AccumMode::F16 => {
                        let mut a16 = F16::from_f64(c.get(i, j));
                        for (kk, &av) in arow.iter().enumerate() {
                            a16 = F16::from_f64(a16.to_f64() + av * bcol[kk]);
                        }
                        a16.to_f64()
                    }
                    AccumMode::I32 => unreachable!(),
                }
            };
            d.data[i * n + j] = round_to(desc.cd, acc);
        }
    }
    Ok(d)
}

/// Every check [`execute_mma`] makes, without computing the product: the
/// A, B and C shapes, then the 2:4 structure of a sparse float A through
/// the F16 carriers the product compresses it with.  `C` may be a
/// shape-only tile ([`Tile::shape`]); A must hold its values.
pub(crate) fn check_mma(desc: &MmaDesc, a: &Tile, b: &Tile, c: &Tile) -> Result<(), TcError> {
    check_shapes(desc, a, b, c)?;
    if !desc.sparse || accum_mode(desc.cd) == AccumMode::I32 {
        return Ok(());
    }
    (0..a.rows).try_for_each(|i| row_survivors(desc, a, i, |_, _| {}))
}

/// Feed `keep` the 2:4 survivors of A's row `i` — `(K position, F16
/// carrier)`, in `Sparse24::compress` order — without allocating, or name
/// the first group with more than two non-zeros.  Value-domain
/// compression via FP16 carriers: every dtype's values are exactly
/// representable after `round_to`, and FP16 is wide enough for the
/// (−1, 1) benchmark ranges used throughout.
fn row_survivors(
    desc: &MmaDesc,
    a: &Tile,
    i: usize,
    mut keep: impl FnMut(usize, F16),
) -> Result<(), TcError> {
    for g in 0..a.cols / 4 {
        let group: [F16; 4] = std::array::from_fn(|p| F16::from_f64(a.get(i, g * 4 + p)));
        let picks = Sparse24::group_picks(g, &group)
            .map_err(|e| TcError(format!("{desc}: A row {i} violates 2:4 sparsity: {e}")))?;
        for p in picks {
            keep(g * 4 + p, group[p]);
        }
    }
    Ok(())
}

fn check_shapes(desc: &MmaDesc, a: &Tile, b: &Tile, c: &Tile) -> Result<(), TcError> {
    let (m, n, k) = (desc.m as usize, desc.n as usize, desc.k as usize);
    if a.rows != m || a.cols != k {
        return Err(TcError(format!(
            "{desc}: A must be {m}x{k}, got {}x{}",
            a.rows, a.cols
        )));
    }
    if b.rows != k || b.cols != n {
        return Err(TcError(format!(
            "{desc}: B must be {k}x{n}, got {}x{}",
            b.rows, b.cols
        )));
    }
    if c.rows != m || c.cols != n {
        return Err(TcError(format!(
            "{desc}: C must be {m}x{n}, got {}x{}",
            c.rows, c.cols
        )));
    }
    Ok(())
}

/// For sparse integer tiles: keep the first two non-zeros per group of 4
/// (mirrors `Sparse24::compress` positions).
fn sparse_position_kept(a: &Tile, row: usize, kk: usize) -> bool {
    let group = kk / 4;
    let base = group * 4;
    let mut kept = 0;
    for p in base..base + 4 {
        let nz = a.get(row, p) != 0.0;
        if p == kk {
            return nz && kept < 2;
        }
        if nz {
            kept += 1;
        }
    }
    false
}

/// Decode a raw little-endian element into its numeric value.
pub fn decode_elem(dtype: DType, raw: u64) -> f64 {
    match dtype {
        DType::F16 => F16::from_bits(raw).to_f64(),
        DType::BF16 => Bf16::from_bits(raw).to_f64(),
        DType::TF32 => Tf32::from_bits(raw & 0x7ffff).to_f64(),
        DType::F32 => f32::from_bits(raw as u32) as f64,
        DType::F64 => f64::from_bits(raw),
        DType::E4M3 => Fp8E4M3::from_bits(raw).to_f64(),
        DType::E5M2 => Fp8E5M2::from_bits(raw).to_f64(),
        DType::S8 => raw as u8 as i8 as f64,
        DType::S4 => hopper_numerics::Int4::from_nibble(raw as u8).get() as f64,
        DType::B1 => (raw & 1) as f64,
        DType::S32 => raw as u32 as i32 as f64,
    }
}

/// Encode a numeric value into its raw little-endian element bits.
pub fn encode_elem(dtype: DType, v: f64) -> u64 {
    match dtype {
        DType::F16 => F16::from_f64(v).to_bits(),
        DType::BF16 => Bf16::from_f64(v).to_bits(),
        DType::TF32 => Tf32::from_f64(v).to_bits(),
        DType::F32 => (v as f32).to_bits() as u64,
        DType::F64 => v.to_bits(),
        DType::E4M3 => Fp8E4M3::from_f64(v).to_bits(),
        DType::E5M2 => Fp8E5M2::from_f64(v).to_bits(),
        DType::S8 => (v as i64 as i8) as u8 as u64,
        DType::S4 => hopper_numerics::Int4::new_clamped(v as i32).to_nibble() as u64,
        DType::B1 => (v != 0.0) as u64,
        DType::S32 => (v as i64 as i32) as u32 as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_isa::mma::OperandSource;

    fn desc_f16(cd: DType) -> MmaDesc {
        MmaDesc::mma(16, 8, 16, DType::F16, cd, false).unwrap()
    }

    #[test]
    fn identity_mma() {
        let d = desc_f16(DType::F32);
        let a = Tile::from_pattern(DType::F16, 16, 16, TilePattern::Identity);
        let b = Tile::from_pattern(DType::F16, 16, 8, TilePattern::Random { seed: 5 });
        let c = Tile::zeros(DType::F32, 16, 8);
        let out = execute_mma(&d, &a, &b, &c).unwrap();
        for r in 0..16 {
            for cc in 0..8 {
                assert_eq!(out.get(r, cc), b.get(r, cc) as f32 as f64);
            }
        }
    }

    #[test]
    fn fp16_accumulator_is_lossier_than_fp32() {
        // C = 2048, A·B adds 16 ones: FP16 accumulate swallows them.
        let a = Tile {
            dtype: DType::F16,
            rows: 16,
            cols: 16,
            data: vec![1.0; 256],
        };
        let b = Tile {
            dtype: DType::F16,
            rows: 16,
            cols: 8,
            data: vec![1.0 / 16.0; 128],
        };
        let c = Tile {
            dtype: DType::F16,
            rows: 16,
            cols: 8,
            data: vec![2048.0; 128],
        };
        let d16 = execute_mma(&desc_f16(DType::F16), &a, &b, &c).unwrap();
        let c32 = Tile {
            dtype: DType::F32,
            ..c.clone()
        };
        let d32 = execute_mma(&desc_f16(DType::F32), &a, &b, &c32).unwrap();
        assert_eq!(d16.get(0, 0), 2048.0);
        assert_eq!(d32.get(0, 0), 2049.0);
    }

    #[test]
    fn integer_mma_wraps() {
        let desc = MmaDesc::mma(16, 8, 16, DType::S8, DType::S32, false).unwrap();
        let a = Tile {
            dtype: DType::S8,
            rows: 16,
            cols: 16,
            data: vec![127.0; 256],
        };
        let b = Tile {
            dtype: DType::S8,
            rows: 16,
            cols: 8,
            data: vec![127.0; 128],
        };
        let c = Tile {
            dtype: DType::S32,
            rows: 16,
            cols: 8,
            data: vec![i32::MAX as f64 - 100.0; 128],
        };
        let d = execute_mma(&desc, &a, &b, &c).unwrap();
        // 16·127·127 = 258064 added to (MAX-100) wraps negative.
        assert!(d.get(0, 0) < 0.0);
    }

    #[test]
    fn binary_and_popc() {
        let desc = MmaDesc::mma(16, 8, 256, DType::B1, DType::S32, false).unwrap();
        let a = Tile {
            dtype: DType::B1,
            rows: 16,
            cols: 256,
            data: vec![1.0; 16 * 256],
        };
        let b = Tile {
            dtype: DType::B1,
            rows: 256,
            cols: 8,
            data: vec![1.0; 256 * 8],
        };
        let c = Tile::zeros(DType::S32, 16, 8);
        let d = execute_mma(&desc, &a, &b, &c).unwrap();
        assert_eq!(d.get(3, 3), 256.0);
    }

    #[test]
    fn sparse_matches_dense_dot_on_structured_data() {
        let sparse_desc = MmaDesc::mma(16, 8, 32, DType::F16, DType::F32, true).unwrap();
        assert_eq!(sparse_desc.k, 32);
        let a = Tile::from_pattern(DType::F16, 16, 32, TilePattern::Sparse24Random { seed: 11 });
        let b = Tile::from_pattern(DType::F16, 32, 8, TilePattern::Random { seed: 12 });
        let c = Tile::zeros(DType::F32, 16, 8);
        let ds = execute_mma(&sparse_desc, &a, &b, &c).unwrap();
        // On already-2:4 data the sparse result equals the dense dot.
        for (i, j) in [(0, 0), (7, 3), (15, 7)] {
            let mut want = 0.0f32;
            for kk in 0..32 {
                want = ((want as f64) + a.get(i, kk) * b.get(kk, j)) as f32;
            }
            assert!((ds.get(i, j) - want as f64).abs() < 1e-6, "({i},{j})");
        }
    }

    #[test]
    fn wgmma_descriptor_executes() {
        let wg = MmaDesc::wgmma(
            8,
            DType::F16,
            DType::F32,
            false,
            OperandSource::SharedShared,
        )
        .unwrap();
        let a = Tile::from_pattern(DType::F16, 64, 16, TilePattern::Random { seed: 1 });
        let b = Tile::from_pattern(DType::F16, 16, 8, TilePattern::Random { seed: 2 });
        let c = Tile::zeros(DType::F32, 64, 8);
        let d = execute_mma(&wg, &a, &b, &c).unwrap();
        assert_eq!((d.rows, d.cols), (64, 8));
        assert!(d.data.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn sparse_rejects_dense_data() {
        let sparse_desc = MmaDesc::mma(16, 8, 32, DType::F16, DType::F32, true).unwrap();
        let a = Tile::from_pattern(DType::F16, 16, 32, TilePattern::Random { seed: 1 });
        let b = Tile::from_pattern(DType::F16, 32, 8, TilePattern::Random { seed: 2 });
        let c = Tile::zeros(DType::F32, 16, 8);
        let err = execute_mma(&sparse_desc, &a, &b, &c).unwrap_err();
        assert!(err.to_string().contains("2:4"));
    }

    #[test]
    fn shape_mismatch_reported() {
        let d = desc_f16(DType::F32);
        let a = Tile::zeros(DType::F16, 8, 16);
        let b = Tile::zeros(DType::F16, 16, 8);
        let c = Tile::zeros(DType::F32, 16, 8);
        let e = execute_mma(&d, &a, &b, &c).unwrap_err();
        assert!(e.to_string().contains("A must be 16x16"));
    }

    #[test]
    fn activity_metric() {
        let z = Tile::from_pattern(DType::F16, 8, 8, TilePattern::Zero);
        assert_eq!(z.activity(), 0.0);
        let r = Tile::from_pattern(DType::F16, 8, 8, TilePattern::Random { seed: 3 });
        assert!(r.activity() > 0.9);
        let s = Tile::from_pattern(DType::F16, 8, 8, TilePattern::Sparse24Random { seed: 3 });
        assert!((s.activity() - 0.5).abs() < 0.1);
    }

    #[test]
    fn fp8_rounding_applied_to_tiles() {
        let t = Tile {
            dtype: DType::E4M3,
            rows: 1,
            cols: 1,
            data: vec![round_to(DType::E4M3, 500.0)],
        };
        assert_eq!(t.get(0, 0), 448.0);
    }
}
