//! A small text assembler for a PTX-flavoured syntax.
//!
//! This exists so tests, examples and docs can show kernels as readable
//! text instead of builder chains.  It covers the subset of PTX the
//! paper's microbenchmarks need; anything fancier should use
//! [`crate::kernel::KernelBuilder`] directly.
//!
//! ```
//! use hopper_isa::asm::assemble;
//! let k = assemble(r#"
//!     mov.s32 %r1, 0;
//! LOOP:
//!     add.s32 %r1, %r1, 1;
//!     setp.lt.s32 %p0, %r1, 128;
//!     @%p0 bra LOOP;
//!     exit;
//! "#).unwrap();
//! assert_eq!(k.instrs.len(), 5);
//! ```

use crate::dpx::{DpxFunc, ALL_DPX};
use crate::instr::*;
use crate::kernel::Kernel;
use crate::mma::{MmaDesc, OperandSource};
use crate::DType;
use std::collections::HashMap;

/// Assembly error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}
impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

/// Assemble PTX-flavoured `source` into a [`Kernel`] named `asm`.
pub fn assemble(source: &str) -> Result<Kernel, AsmError> {
    assemble_named(source, "asm")
}

/// Assemble with an explicit kernel name.
///
/// The result has passed [`Kernel::validate`]: a register, predicate or
/// branch target the simulator could not index is an [`AsmError`] on the
/// line that wrote it.
pub fn assemble_named(source: &str, name: &str) -> Result<Kernel, AsmError> {
    // Pass 1: split into (line, statement) and bind each label to the index
    // of the statement that follows it, so pass 2 resolves branches as it
    // parses them.
    let mut stmts: Vec<(usize, &str)> = Vec::new();
    let mut labels: HashMap<&str, usize> = HashMap::new();
    let mut smem_bytes = 0u32;
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        // Labels may share a line with an instruction: `L: add.s32 ...`.
        let mut rest = raw.split("//").next().unwrap_or("").trim();
        while let Some(colon) = rest.find(':') {
            let head = &rest[..colon];
            if head.chars().all(|c| c.is_alphanumeric() || c == '_') && !head.is_empty() {
                labels.insert(head, stmts.len());
                rest = rest[colon + 1..].trim();
            } else {
                break;
            }
        }
        for stmt in rest.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(sz) = stmt.strip_prefix(".shared ") {
                smem_bytes = smem_bytes.max(sz.trim().parse::<u32>().map_err(|e| AsmError {
                    line,
                    msg: format!("bad .shared size: {e}"),
                })?);
            } else {
                stmts.push((line, stmt));
            }
        }
    }

    let instrs = stmts
        .iter()
        .map(|&(line, stmt)| parse_stmt(stmt, line, &labels))
        .collect::<Result<Vec<_>, _>>()?;
    let kernel = Kernel::new(name, instrs, smem_bytes);
    kernel.validate().map_err(|e| AsmError {
        line: e.pc.map_or(source.lines().count(), |pc| stmts[pc].0),
        msg: e.msg,
    })?;
    Ok(kernel)
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let t = tok.trim().trim_end_matches(',');
    if let Some(n) = t.strip_prefix("%r") {
        if let Ok(i) = n.parse::<u16>() {
            return Ok(Reg(i));
        }
    }
    err(line, format!("expected register, got `{t}`"))
}

fn parse_pred(tok: &str, line: usize) -> Result<Pred, AsmError> {
    let t = tok.trim().trim_end_matches(',');
    if let Some(n) = t.strip_prefix("%p") {
        if let Ok(i) = n.parse::<u8>() {
            return Ok(Pred(i));
        }
    }
    err(line, format!("expected predicate, got `{t}`"))
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, AsmError> {
    let t = tok.trim().trim_end_matches(',');
    if t.starts_with("%r") {
        return Ok(Operand::Reg(parse_reg(t, line)?));
    }
    if let Some(hex) = t.strip_prefix("0x") {
        if let Ok(v) = i64::from_str_radix(hex, 16) {
            return Ok(Operand::Imm(v));
        }
    }
    t.parse::<i64>().map(Operand::Imm).map_err(|_| AsmError {
        line,
        msg: format!("expected operand, got `{t}`"),
    })
}

/// Parse `[%rN+off]` / `[%rN]`.
fn parse_addr(tok: &str, line: usize) -> Result<AddrExpr, AsmError> {
    let t = tok.trim().trim_end_matches(',');
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| AsmError {
            line,
            msg: format!("expected [addr], got `{t}`"),
        })?;
    let (base, off) = match inner.find(['+', '-']) {
        Some(pos) if pos > 0 => {
            let (b, o) = inner.split_at(pos);
            (
                b,
                o.parse::<i64>().map_err(|e| AsmError {
                    line,
                    msg: format!("bad offset: {e}"),
                })?,
            )
        }
        _ => (inner, 0),
    };
    Ok(AddrExpr {
        base: parse_reg(base, line)?,
        offset: off,
    })
}

/// Canonical widths ([`Width::NAMES`]) plus the typed PTX aliases.
fn parse_width(tok: &str, line: usize) -> Result<Width, AsmError> {
    match tok {
        "f32" | "u32" | "s32" => Ok(Width::B4),
        "f64" | "u64" | "s64" => Ok(Width::B8),
        "b128" => Ok(Width::B16),
        _ => Width::parse(tok).ok_or_else(|| AsmError {
            line,
            msg: format!("unknown width `{tok}`"),
        }),
    }
}

fn parse_stmt(stmt: &str, line: usize, labels: &HashMap<&str, usize>) -> Result<Instr, AsmError> {
    // Guard prefix: `@%p0 bra L` / `@!%p0 bra L`.
    let (guard, stmt) = match stmt.strip_prefix('@') {
        None => (None, stmt),
        Some(rest) => {
            let (guard, rest) = rest.split_once(' ').ok_or_else(|| AsmError {
                line,
                msg: "malformed guarded instruction".into(),
            })?;
            let (when, ptok) = match guard.strip_prefix('!') {
                Some(p) => (false, p),
                None => (true, guard),
            };
            (Some((parse_pred(ptok, line)?, when)), rest.trim())
        }
    };

    let mut parts = stmt.splitn(2, ' ');
    let op = parts.next().unwrap();
    let args: Vec<&str> = parts
        .next()
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let dots: Vec<&str> = op.split('.').collect();
    if guard.is_some() && op != "bra" {
        return err(line, "only `bra` may be guarded in this assembler");
    }

    match dots.as_slice() {
        ["exit"] => Ok(Instr::Exit),
        ["bar", "sync"] => Ok(Instr::BarSync),
        ["barrier", "cluster"] => Ok(Instr::ClusterSync),
        ["bra"] => {
            let label = args.first().ok_or_else(|| AsmError {
                line,
                msg: "bra needs a label".into(),
            })?;
            let target = *labels.get(label).ok_or_else(|| AsmError {
                line,
                msg: format!("undefined label `{label}`"),
            })?;
            Ok(Instr::Bra { target, guard })
        }
        ["mov", ..] => {
            let dst = parse_reg(args.first().copied().unwrap_or(""), line)?;
            let srctok = args.get(1).copied().unwrap_or("");
            if let Some(sr) = Special::parse(srctok) {
                Ok(Instr::ReadSpecial { dst, sr })
            } else {
                Ok(Instr::Mov {
                    dst,
                    src: parse_operand(srctok, line)?,
                })
            }
        }
        [alu, ty] if IAluOp::parse(alu).is_some() => {
            let dst = parse_reg(args.first().copied().unwrap_or(""), line)?;
            let a = parse_operand(args.get(1).copied().unwrap_or(""), line)?;
            let b = parse_operand(args.get(2).copied().unwrap_or(""), line)?;
            match FloatPrec::parse(ty) {
                Some(prec) => Ok(Instr::FAlu {
                    op: FAluOp::parse(alu).ok_or_else(|| AsmError {
                        line,
                        msg: format!("no float op `{alu}`"),
                    })?,
                    prec,
                    dst,
                    a,
                    b,
                }),
                None => Ok(Instr::IAlu {
                    op: IAluOp::parse(alu).expect("arm guard"),
                    dst,
                    a,
                    b,
                }),
            }
        }
        ["mad", _ty] => Ok(Instr::IMad {
            dst: parse_reg(args.first().copied().unwrap_or(""), line)?,
            a: parse_operand(args.get(1).copied().unwrap_or(""), line)?,
            b: parse_operand(args.get(2).copied().unwrap_or(""), line)?,
            c: parse_operand(args.get(3).copied().unwrap_or(""), line)?,
        }),
        ["fma", ty] => Ok(Instr::FFma {
            prec: FloatPrec::parse(ty).unwrap_or(FloatPrec::F32),
            dst: parse_reg(args.first().copied().unwrap_or(""), line)?,
            a: parse_operand(args.get(1).copied().unwrap_or(""), line)?,
            b: parse_operand(args.get(2).copied().unwrap_or(""), line)?,
            c: parse_operand(args.get(3).copied().unwrap_or(""), line)?,
        }),
        ["setp", cmp, _ty] => Ok(Instr::SetP {
            pred: parse_pred(args.first().copied().unwrap_or(""), line)?,
            cmp: CmpOp::parse(cmp).ok_or_else(|| AsmError {
                line,
                msg: format!("unknown comparison `{cmp}`"),
            })?,
            a: parse_operand(args.get(1).copied().unwrap_or(""), line)?,
            b: parse_operand(args.get(2).copied().unwrap_or(""), line)?,
        }),
        ["sel"] => Ok(Instr::Sel {
            dst: parse_reg(args.first().copied().unwrap_or(""), line)?,
            pred: parse_pred(args.get(1).copied().unwrap_or(""), line)?,
            a: parse_operand(args.get(2).copied().unwrap_or(""), line)?,
            b: parse_operand(args.get(3).copied().unwrap_or(""), line)?,
        }),
        ["ld", space, rest @ ..] => {
            let (cop, wtok) = match rest {
                [c, w] => match CacheOp::parse(c) {
                    Some(cop) => (cop, *w),
                    None => return err(line, "malformed ld"),
                },
                [w] => (CacheOp::Ca, *w),
                _ => return err(line, "malformed ld"),
            };
            Ok(Instr::Ld {
                space: parse_space(space, line)?,
                cop,
                width: parse_width(wtok, line)?,
                dst: parse_reg(args.first().copied().unwrap_or(""), line)?,
                addr: parse_addr(args.get(1).copied().unwrap_or(""), line)?,
            })
        }
        ["st", space, wtok] => Ok(Instr::St {
            space: parse_space(space, line)?,
            width: parse_width(wtok, line)?,
            addr: parse_addr(args.first().copied().unwrap_or(""), line)?,
            src: parse_reg(args.get(1).copied().unwrap_or(""), line)?,
        }),
        ["atom", space, "add", _w] => {
            // Forms: `atom.shared.add.b32 %rd, [a], v` or `atom... [a], v`.
            let (dst, ai, vi) = if args.len() == 3 {
                (Some(parse_reg(args[0], line)?), 1, 2)
            } else {
                (None, 0, 1)
            };
            Ok(Instr::AtomAdd {
                space: parse_space(space, line)?,
                dst,
                addr: parse_addr(args.get(ai).copied().unwrap_or(""), line)?,
                src: parse_operand(args.get(vi).copied().unwrap_or(""), line)?,
            })
        }
        ["cp", "async", ..] if op.contains("commit") => Ok(Instr::CpAsyncCommit),
        ["cp", "async", ..] if op.contains("wait") => Ok(Instr::CpAsyncWait {
            groups: args
                .first()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| AsmError {
                    line,
                    msg: "cp.async.wait_group needs N".into(),
                })?,
        }),
        ["cp", "async", ..] => {
            let bytes: u64 = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| AsmError {
                    line,
                    msg: "cp.async needs byte count".into(),
                })?;
            let width = match bytes {
                4 => Width::B4,
                8 => Width::B8,
                16 => Width::B16,
                _ => return err(line, "cp.async supports 4/8/16 bytes"),
            };
            Ok(Instr::CpAsync {
                width,
                smem: parse_addr(args[0], line)?,
                gmem: parse_addr(args[1], line)?,
            })
        }
        ["mapa"] => Ok(Instr::Mapa {
            dst: parse_reg(args.first().copied().unwrap_or(""), line)?,
            addr: parse_operand(args.get(1).copied().unwrap_or(""), line)?,
            rank: parse_operand(args.get(2).copied().unwrap_or(""), line)?,
        }),
        ["wgmma", "fence"] => Ok(Instr::WgmmaFence),
        ["wgmma", "commit_group"] => Ok(Instr::WgmmaCommit),
        ["wgmma", "wait_group"] => Ok(Instr::WgmmaWait {
            groups: args.first().and_then(|s| s.parse().ok()).unwrap_or(0),
        }),
        _ if op.starts_with("dpx.") => {
            let fname = &op[4..];
            let func = ALL_DPX
                .iter()
                .copied()
                .find(|f: &DpxFunc| f.cuda_name().trim_start_matches("__") == fname)
                .ok_or_else(|| AsmError {
                    line,
                    msg: format!("unknown DPX function `{fname}`"),
                })?;
            Ok(Instr::Dpx {
                func,
                dst: parse_reg(args.first().copied().unwrap_or(""), line)?,
                a: parse_operand(args.get(1).copied().unwrap_or(""), line)?,
                b: parse_operand(args.get(2).copied().unwrap_or(""), line)?,
                c: parse_operand(args.get(3).copied().unwrap_or(""), line)?,
            })
        }
        _ if op.starts_with("mma.") || op.starts_with("wgmma.") => parse_mma(op, &args, line),
        _ => err(line, format!("unknown instruction `{op}`")),
    }
}

fn parse_space(tok: &str, line: usize) -> Result<MemSpace, AsmError> {
    MemSpace::parse(tok).ok_or_else(|| AsmError {
        line,
        msg: format!("unknown state space `{tok}`"),
    })
}

fn parse_dtype(tok: &str, line: usize) -> Result<DType, AsmError> {
    match tok {
        "f16" => Ok(DType::F16),
        "bf16" => Ok(DType::BF16),
        "tf32" => Ok(DType::TF32),
        "f32" => Ok(DType::F32),
        "f64" => Ok(DType::F64),
        "e4m3" => Ok(DType::E4M3),
        "e5m2" => Ok(DType::E5M2),
        "s8" => Ok(DType::S8),
        "s4" => Ok(DType::S4),
        "b1" => Ok(DType::B1),
        "s32" => Ok(DType::S32),
        _ => err(line, format!("unknown dtype `{tok}`")),
    }
}

fn parse_tile(tok: &str, line: usize) -> Result<TileId, AsmError> {
    tok.trim()
        .strip_prefix('t')
        .and_then(|n| n.parse::<u8>().ok())
        .map(TileId)
        .ok_or_else(|| AsmError {
            line,
            msg: format!("expected tile `tN`, got `{tok}`"),
        })
}

/// `mma[.sp].mMnNkK.<cd>.<ab> tD, tA, tB, tC`
/// `wgmma[.sp].mMnNkK.<cd>.<ab>[.rs|.ss] tD, tA, tB`
fn parse_mma(op: &str, args: &[&str], line: usize) -> Result<Instr, AsmError> {
    let is_wgmma = op.starts_with("wgmma");
    let mut toks: Vec<&str> = op.split('.').collect();
    toks.remove(0);
    let sparse = toks.first() == Some(&"sp");
    if sparse {
        toks.remove(0);
    }
    let shape = toks.first().copied().ok_or_else(|| AsmError {
        line,
        msg: "missing shape".into(),
    })?;
    let (m, n, k) = parse_shape(shape, line)?;
    let cd = parse_dtype(toks.get(1).copied().unwrap_or(""), line)?;
    let ab = parse_dtype(toks.get(2).copied().unwrap_or(""), line)?;
    let a_src = match toks.get(3).copied() {
        Some("rs") => OperandSource::RegShared,
        Some("ss") | None => OperandSource::SharedShared,
        Some(other) => return err(line, format!("unknown operand-source `{other}`")),
    };
    if is_wgmma {
        if m != 64 {
            return err(line, format!("wgmma requires m64, got m{m}"));
        }
        let desc = MmaDesc::wgmma(n, ab, cd, sparse, a_src).map_err(|e| AsmError {
            line,
            msg: e.to_string(),
        })?;
        if desc.k != k {
            return err(
                line,
                format!("wgmma.{} requires k{}, got k{}", ab.ptx_name(), desc.k, k),
            );
        }
        Ok(Instr::Wgmma {
            desc,
            d: parse_tile(args.first().copied().unwrap_or(""), line)?,
            a: parse_tile(args.get(1).copied().unwrap_or(""), line)?,
            b: parse_tile(args.get(2).copied().unwrap_or(""), line)?,
        })
    } else {
        let desc = MmaDesc::mma(m, n, k, ab, cd, sparse).map_err(|e| AsmError {
            line,
            msg: e.to_string(),
        })?;
        Ok(Instr::Mma {
            desc,
            d: parse_tile(args.first().copied().unwrap_or(""), line)?,
            a: parse_tile(args.get(1).copied().unwrap_or(""), line)?,
            b: parse_tile(args.get(2).copied().unwrap_or(""), line)?,
            c: parse_tile(args.get(3).copied().unwrap_or(""), line)?,
        })
    }
}

fn parse_shape(tok: &str, line: usize) -> Result<(u32, u32, u32), AsmError> {
    // mMnNkK
    let bad = || AsmError {
        line,
        msg: format!("malformed shape `{tok}`"),
    };
    let rest = tok.strip_prefix('m').ok_or_else(bad)?;
    let npos = rest.find('n').ok_or_else(bad)?;
    let kpos = rest.find('k').ok_or_else(bad)?;
    let m = rest[..npos].parse().map_err(|_| bad())?;
    let n = rest[npos + 1..kpos].parse().map_err(|_| bad())?;
    let k = rest[kpos + 1..].parse().map_err(|_| bad())?;
    Ok((m, n, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_alu_and_loop() {
        let k = assemble(
            "mov.s32 %r1, 5;\nTOP:\nadd.s32 %r1, %r1, -1;\nsetp.gt.s32 %p0, %r1, 0;\n@%p0 bra TOP;\nexit;",
        )
        .unwrap();
        assert_eq!(k.instrs.len(), 5);
        assert!(matches!(k.instrs[2], Instr::SetP { cmp: CmpOp::Gt, .. }));
        assert!(matches!(k.instrs[3], Instr::Bra { target: 1, .. }));
    }

    #[test]
    fn loads_and_stores() {
        let k = assemble(
            ".shared 4096;\nld.global.cg.b32 %r2, [%r1+64];\nld.shared.b64 %r3, [%r2];\nst.global.v4 [%r4+16], %r5;\nexit;",
        )
        .unwrap();
        assert_eq!(k.smem_bytes, 4096);
        assert!(matches!(
            k.instrs[0],
            Instr::Ld {
                space: MemSpace::Global,
                cop: CacheOp::Cg,
                width: Width::B4,
                addr: AddrExpr { offset: 64, .. },
                ..
            }
        ));
        assert!(matches!(
            k.instrs[2],
            Instr::St {
                width: Width::B16,
                ..
            }
        ));
    }

    #[test]
    fn mma_and_wgmma() {
        let k = assemble(
            "mma.m16n8k16.f32.f16 t0, t1, t2, t0;\nwgmma.m64n256k16.f32.f16.ss t0, t1, t2;\nwgmma.sp.m64n256k32.f32.f16.rs t0, t1, t2;\nexit;",
        )
        .unwrap();
        match &k.instrs[1] {
            Instr::Wgmma { desc, .. } => {
                assert_eq!(desc.n, 256);
                assert!(!desc.sparse);
                assert_eq!(desc.a_src, OperandSource::SharedShared);
            }
            other => panic!("{other:?}"),
        }
        match &k.instrs[2] {
            Instr::Wgmma { desc, .. } => {
                assert!(desc.sparse);
                assert_eq!(desc.a_src, OperandSource::RegShared);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dpx_and_specials() {
        let k = assemble(
            "mov %r1, %smid;\nmov %r2, %clock;\ndpx.viaddmax_s32 %r3, %r1, %r2, 7;\nexit;",
        )
        .unwrap();
        assert!(matches!(
            k.instrs[0],
            Instr::ReadSpecial {
                sr: Special::SmId,
                ..
            }
        ));
        assert!(matches!(
            k.instrs[2],
            Instr::Dpx {
                func: DpxFunc::ViAddMaxS32,
                ..
            }
        ));
    }

    #[test]
    fn async_and_cluster_ops() {
        let k = assemble(
            "cp.async.cg.shared.global [%r1], [%r2], 16;\ncp.async.commit_group;\ncp.async.wait_group 0;\nmapa %r3, %r1, 1;\nbarrier.cluster;\natom.shared::cluster.add.b32 [%r3], 1;\nexit;",
        )
        .unwrap();
        assert!(matches!(
            k.instrs[0],
            Instr::CpAsync {
                width: Width::B16,
                ..
            }
        ));
        assert!(matches!(k.instrs[2], Instr::CpAsyncWait { groups: 0 }));
        assert!(matches!(
            k.instrs[5],
            Instr::AtomAdd {
                space: MemSpace::SharedCluster,
                dst: None,
                ..
            }
        ));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("mov.s32 %r1, 0;\nbogus.op %r1;\nexit;").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = assemble("bra NOWHERE;\nexit;").unwrap_err();
        assert!(e.msg.contains("NOWHERE"));
    }

    /// Operands the simulator could not index are errors on the line that
    /// wrote them (each of these assembled cleanly and then crashed the
    /// engine before `Kernel::validate` existed).
    #[test]
    fn out_of_range_operands_are_line_errors() {
        for (src, line, needle) in [
            ("exit;\nmov.s32 %r300, 1;\nexit;", 2, "%r300"),
            // The implicit pair register of a 16-byte access counts.
            ("ld.global.v4 %r255, [%r0];\nexit;", 1, "%r256"),
            ("mov %r1, 0;\nst.global.v4 [%r0], %r255;\nexit;", 2, "%r256"),
            ("sel %r2, %p9, 1, 2;\nexit;", 1, "%p9"),
            (
                "mov %r1, 0;\n\nsetp.lt.s32 %p200, %r1, 4;\nexit;",
                3,
                "%p200",
            ),
            ("mov %r1, 0;\nbra END;\nexit;\nEND:", 2, "branch target 3"),
        ] {
            let e = assemble(src).expect_err(src);
            assert_eq!(e.line, line, "{src}: {e}");
            assert!(e.msg.contains(needle), "{src}: {e}");
        }
        // In range, the pair register widens the footprint instead.
        let k = assemble("ld.global.v4 %r15, [%r0];\nst.global.v4 [%r0], %r15;\nexit;").unwrap();
        assert_eq!(k.regs_per_thread, 24);
    }

    #[test]
    fn wgmma_shape_mismatch_rejected() {
        let e = assemble("wgmma.m64n256k8.f32.f16.ss t0, t1, t2;\nexit;").unwrap_err();
        assert!(e.msg.contains("k16"));
    }
}
