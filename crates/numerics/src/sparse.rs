//! 2:4 structured sparsity (Ampere/Hopper sparse tensor cores).
//!
//! Sparse `mma.sp`/`wgmma.sp` instructions consume an A operand that has
//! been *pruned* so that every group of four consecutive K-elements holds at
//! most two non-zeros.  The hardware stores only the two surviving values
//! ("compressed" A, half the size) plus 2 bits of metadata per survivor
//! selecting its position within the group of four.

use crate::types::SoftFloat;

/// Error produced when a row violates the 2:4 structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityError {
    /// Group index (along K, in units of 4 elements) that held >2 non-zeros.
    pub group: usize,
    /// Number of non-zeros found in that group.
    pub nonzeros: usize,
}

impl core::fmt::Display for SparsityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "group {} has {} non-zeros; 2:4 sparsity allows at most 2",
            self.group, self.nonzeros
        )
    }
}

impl std::error::Error for SparsityError {}

/// A 2:4-compressed row: `values.len() == k/2`, with 2-bit metadata per
/// value giving its source position in each group of four.
#[derive(Debug, Clone, PartialEq)]
pub struct Sparse24<T> {
    /// Surviving values, two per group of four.
    pub values: Vec<T>,
    /// Packed metadata: entry `i` holds the in-group position (0..4) of
    /// `values[i]`, two bits each, as the hardware metadata operand does.
    pub meta: Vec<u8>,
    /// Original (uncompressed) K extent.
    pub k: usize,
}

impl<T: SoftFloat> Sparse24<T> {
    /// Compress a dense row that already satisfies the 2:4 property.
    ///
    /// Returns an error naming the first offending group otherwise.
    pub fn compress(dense: &[T]) -> Result<Self, SparsityError> {
        assert!(
            dense.len().is_multiple_of(4),
            "K must be a multiple of 4 for 2:4 sparsity"
        );
        let mut values = Vec::with_capacity(dense.len() / 2);
        let mut meta = Vec::with_capacity(dense.len() / 2);
        for (g, group) in dense.chunks_exact(4).enumerate() {
            for p in Self::group_picks(g, group)? {
                values.push(group[p]);
                meta.push(p as u8);
            }
        }
        Ok(Sparse24 {
            values,
            meta,
            k: dense.len(),
        })
    }

    /// The 2:4 verdict on group `g` (four consecutive K-elements) of a
    /// dense row, without allocating: the in-group positions of its two
    /// survivors, ascending, or the error naming the group.  The survivors
    /// are the (up to two) non-zeros, padded with the lowest remaining
    /// positions so every group contributes exactly two, as the hardware
    /// layout requires.
    pub fn group_picks(g: usize, group: &[T]) -> Result<[usize; 2], SparsityError> {
        debug_assert_eq!(group.len(), 4, "a 2:4 group holds four elements");
        let mut picks = [0usize; 2];
        let mut nonzeros = 0;
        for (p, v) in group.iter().enumerate() {
            if v.to_f64() != 0.0 {
                if nonzeros < 2 {
                    picks[nonzeros] = p;
                }
                nonzeros += 1;
            }
        }
        if nonzeros > 2 {
            return Err(SparsityError { group: g, nonzeros });
        }
        let mut fill = 0;
        for n in nonzeros..2 {
            while picks[..n].contains(&fill) {
                fill += 1;
            }
            picks[n] = fill;
            fill += 1;
        }
        picks.sort_unstable();
        Ok(picks)
    }

    /// Prune a dense row *into* 2:4 form by keeping the two largest-
    /// magnitude elements of every group (the standard magnitude-based
    /// pruning used when preparing sparse weights), then compress.
    pub fn prune_and_compress(dense: &[T]) -> Self {
        assert!(dense.len().is_multiple_of(4));
        let mut pruned: Vec<T> = dense.to_vec();
        for group in pruned.chunks_exact_mut(4) {
            let mut idx = [0usize, 1, 2, 3];
            idx.sort_by(|&a, &b| {
                group[b]
                    .to_f64()
                    .abs()
                    .partial_cmp(&group[a].to_f64().abs())
                    .unwrap_or(core::cmp::Ordering::Equal)
            });
            for &drop in &idx[2..] {
                group[drop] = T::zero();
            }
        }
        Self::compress(&pruned).expect("pruned row satisfies 2:4 by construction")
    }

    /// Expand back to a dense row of length `k`.
    pub fn decompress(&self) -> Vec<T> {
        let mut out = vec![T::zero(); self.k];
        for (i, (&m, v)) in self.meta.iter().zip(&self.values).enumerate() {
            let group = i / 2;
            out[group * 4 + m as usize] = *v;
        }
        out
    }

    /// Sparse dot against a dense B column of length `k`: only survivors
    /// contribute, exactly as the sparse tensor core multiplies.
    pub fn dot_dense(&self, b: &[T]) -> f64 {
        assert_eq!(b.len(), self.k, "B column length must equal K");
        let mut acc = 0.0f32;
        for (pos, v) in self.survivors() {
            acc = ((acc as f64) + v * b[pos].to_f64()) as f32;
        }
        acc as f64
    }

    /// The surviving elements as `(dense position, value)` pairs, in the
    /// order [`Self::dot_dense`] consumes them. Lets a caller that reuses
    /// one compressed row against many B columns hoist the per-element
    /// carrier→f64 conversion out of its inner loop.
    pub fn survivors(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.meta
            .iter()
            .zip(&self.values)
            .enumerate()
            .map(|(i, (&m, v))| ((i / 2) * 4 + m as usize, v.to_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SoftFloat, F16};

    fn row(vals: &[f64]) -> Vec<F16> {
        vals.iter().map(|&v| F16::from_f64(v)).collect()
    }

    #[test]
    fn compress_valid_row() {
        let dense = row(&[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]);
        let s = Sparse24::compress(&dense).unwrap();
        assert_eq!(s.values.len(), 4);
        assert_eq!(s.meta, vec![0, 2, 1, 3]);
        assert_eq!(s.decompress(), dense);
    }

    #[test]
    fn compress_rejects_dense_group() {
        let dense = row(&[1.0, 2.0, 3.0, 0.0]);
        let err = Sparse24::compress(&dense).unwrap_err();
        assert_eq!(err.group, 0);
        assert_eq!(err.nonzeros, 3);
        assert!(err.to_string().contains("2:4"));
    }

    #[test]
    fn prune_keeps_two_largest() {
        let dense = row(&[1.0, -8.0, 3.0, 0.5]);
        let s = Sparse24::prune_and_compress(&dense);
        let d = s.decompress();
        assert_eq!(d[0].to_f64(), 0.0);
        assert_eq!(d[1].to_f64(), -8.0);
        assert_eq!(d[2].to_f64(), 3.0);
        assert_eq!(d[3].to_f64(), 0.0);
    }

    #[test]
    fn sparse_dot_matches_dense_dot() {
        let dense = row(&[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]);
        let b = row(&[0.5, 9.0, 1.5, 9.0, 9.0, 2.0, 9.0, 0.25]);
        let s = Sparse24::compress(&dense).unwrap();
        let want: f64 = dense
            .iter()
            .zip(&b)
            .map(|(x, y)| x.to_f64() * y.to_f64())
            .sum();
        assert_eq!(s.dot_dense(&b), want);
    }

    #[test]
    fn all_zero_group_pads_deterministically() {
        let dense = row(&[0.0; 8]);
        let s = Sparse24::compress(&dense).unwrap();
        assert_eq!(s.values.len(), 4);
        assert!(s.values.iter().all(|v| v.to_f64() == 0.0));
        assert_eq!(s.decompress(), dense);
    }

    /// The allocating `compress` this module shipped before
    /// [`Sparse24::group_picks`], kept as the reference it must match.
    fn compress_reference(dense: &[F16]) -> Result<Sparse24<F16>, SparsityError> {
        let mut values = Vec::new();
        let mut meta = Vec::new();
        for (g, group) in dense.chunks_exact(4).enumerate() {
            let nz: Vec<usize> = (0..4).filter(|&i| group[i].to_f64() != 0.0).collect();
            if nz.len() > 2 {
                return Err(SparsityError {
                    group: g,
                    nonzeros: nz.len(),
                });
            }
            let mut picks = nz.clone();
            let mut fill = 0usize;
            while picks.len() < 2 {
                while picks.contains(&fill) {
                    fill += 1;
                }
                picks.push(fill);
                fill += 1;
            }
            picks.sort_unstable();
            for &p in &picks {
                values.push(group[p]);
                meta.push(p as u8);
            }
        }
        Ok(Sparse24 {
            values,
            meta,
            k: dense.len(),
        })
    }

    #[test]
    fn compress_matches_the_reference_on_every_group() {
        // Zero, ±x, a value F16 flushes to zero, NaN: every group of four
        // drawn from them, alone and behind a valid group (so errors must
        // name group 1), and one ordered pair of groups in seven.
        let elems = [0.0, 1.5, -1.5, 1e-12, f64::NAN].map(F16::from_f64);
        let groups: Vec<[F16; 4]> = (0..625)
            .map(|i: usize| std::array::from_fn(|p| elems[i / 5usize.pow(p as u32) % 5]))
            .collect();
        let bits = |s: &Sparse24<F16>| {
            let v: Vec<u64> = s.values.iter().map(|v| v.to_bits()).collect();
            (v, s.meta.clone(), s.k)
        };
        let same = |row: &[F16]| {
            let (got, want) = (Sparse24::compress(row), compress_reference(row));
            match (&got, &want) {
                (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w), "{row:?}"),
                _ => assert_eq!(got.err(), want.err(), "{row:?}"),
            }
        };
        for (i, g) in groups.iter().enumerate() {
            same(g);
            same(&[groups[0], *g].concat());
            for h in groups.iter().skip(i % 7).step_by(7) {
                same(&[*g, *h].concat());
            }
        }
    }
}
