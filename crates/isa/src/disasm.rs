//! Disassembler: render instructions back to the [`crate::asm`] syntax.
//!
//! `assemble(disassemble(k)) == k` for every kernel within the assembler's
//! surface (tested by property tests in `tests/`), which makes kernels
//! printable, diffable and round-trippable.

use crate::instr::*;
use crate::kernel::Kernel;
use crate::mma::{MmaKind, OperandSource};
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn op(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => format!("%r{}", r.0),
        Operand::Imm(v) => format!("{v}"),
    }
}

fn addr(a: &AddrExpr) -> String {
    if a.offset == 0 {
        format!("[%r{}]", a.base.0)
    } else {
        format!(
            "[%r{}{}{}]",
            a.base.0,
            if a.offset >= 0 { "+" } else { "" },
            a.offset
        )
    }
}

/// Render one instruction; `None` for instructions outside the assembler's
/// textual surface (tile ops and TMA, which only the builder can express).
pub fn instr_to_asm(i: &Instr) -> Option<String> {
    if !i.info().textual {
        return None;
    }
    Some(match i {
        Instr::IAlu { op: o, dst, a, b } => {
            format!("{}.s32 %r{}, {}, {};", o.name(), dst.0, op(a), op(b))
        }
        Instr::IMad { dst, a, b, c } => {
            format!("mad.s32 %r{}, {}, {}, {};", dst.0, op(a), op(b), op(c))
        }
        Instr::FAlu {
            op: o,
            prec,
            dst,
            a,
            b,
        } => format!(
            "{}.{} %r{}, {}, {};",
            o.name(),
            prec.name(),
            dst.0,
            op(a),
            op(b)
        ),
        Instr::FFma { prec, dst, a, b, c } => format!(
            "fma.{} %r{}, {}, {}, {};",
            prec.name(),
            dst.0,
            op(a),
            op(b),
            op(c)
        ),
        Instr::Mov { dst, src } => format!("mov.s32 %r{}, {};", dst.0, op(src)),
        Instr::Dpx { func, dst, a, b, c } => format!(
            "dpx.{} %r{}, {}, {}, {};",
            func.cuda_name().trim_start_matches("__"),
            dst.0,
            op(a),
            op(b),
            op(c)
        ),
        Instr::SetP { pred, cmp, a, b } => {
            format!(
                "setp.{}.s32 %p{}, {}, {};",
                cmp.name(),
                pred.0,
                op(a),
                op(b)
            )
        }
        Instr::Sel { dst, pred, a, b } => {
            format!("sel %r{}, %p{}, {}, {};", dst.0, pred.0, op(a), op(b))
        }
        Instr::Bra { target, guard } => match guard {
            None => format!("bra L{target};"),
            Some((p, true)) => format!("@%p{} bra L{target};", p.0),
            Some((p, false)) => format!("@!%p{} bra L{target};", p.0),
        },
        Instr::Ld {
            space: sp,
            cop,
            width: w,
            dst,
            addr: a,
        } => match sp {
            MemSpace::Global => format!(
                "ld.global.{}.{} %r{}, {};",
                cop.name(),
                w.name(),
                dst.0,
                addr(a)
            ),
            MemSpace::Shared | MemSpace::SharedCluster => {
                format!("ld.{}.{} %r{}, {};", sp.name(), w.name(), dst.0, addr(a))
            }
        },
        Instr::St {
            space: sp,
            width: w,
            src,
            addr: a,
        } => {
            format!("st.{}.{} {}, %r{};", sp.name(), w.name(), addr(a), src.0)
        }
        Instr::AtomAdd {
            space: sp,
            dst,
            addr: a,
            src,
        } => match dst {
            Some(d) => format!(
                "atom.{}.add.b32 %r{}, {}, {};",
                sp.name(),
                d.0,
                addr(a),
                op(src)
            ),
            None => format!("atom.{}.add.b32 {}, {};", sp.name(), addr(a), op(src)),
        },
        Instr::CpAsync {
            width: w,
            smem,
            gmem,
        } => {
            format!(
                "cp.async.cg.shared.global {}, {}, {};",
                addr(smem),
                addr(gmem),
                w.bytes()
            )
        }
        Instr::CpAsyncCommit => "cp.async.commit_group;".into(),
        Instr::CpAsyncWait { groups } => format!("cp.async.wait_group {groups};"),
        Instr::Mma { desc, d, a, b, c } => {
            format!(
                "mma.{}m{}n{}k{}.{}.{} t{}, t{}, t{}, t{};",
                if desc.sparse { "sp." } else { "" },
                desc.m,
                desc.n,
                desc.k,
                desc.cd.ptx_name(),
                desc.ab.ptx_name(),
                d.0,
                a.0,
                b.0,
                c.0
            )
        }
        Instr::Wgmma { desc, d, a, b } => {
            debug_assert_eq!(desc.kind, MmaKind::Wgmma);
            format!(
                "wgmma.{}m{}n{}k{}.{}.{}.{} t{}, t{}, t{};",
                if desc.sparse { "sp." } else { "" },
                desc.m,
                desc.n,
                desc.k,
                desc.cd.ptx_name(),
                desc.ab.ptx_name(),
                if desc.a_src == OperandSource::RegShared {
                    "rs"
                } else {
                    "ss"
                },
                d.0,
                a.0,
                b.0
            )
        }
        Instr::WgmmaFence => "wgmma.fence;".into(),
        Instr::WgmmaCommit => "wgmma.commit_group;".into(),
        Instr::WgmmaWait { groups } => format!("wgmma.wait_group {groups};"),
        Instr::Mapa { dst, addr: a, rank } => {
            format!("mapa %r{}, {}, {};", dst.0, op(a), op(rank))
        }
        Instr::BarSync => "bar.sync;".into(),
        Instr::ClusterSync => "barrier.cluster;".into(),
        Instr::ReadSpecial { dst, sr } => format!("mov %r{}, {};", dst.0, sr.name()),
        Instr::Exit => "exit;".into(),
        Instr::LdTile { .. }
        | Instr::StTile { .. }
        | Instr::FillTile { .. }
        | Instr::TmaCopy { .. } => unreachable!("builder-only per Instr::info"),
    })
}

/// Whether every instruction has an asm form, i.e. [`disassemble`] would
/// succeed. Cheaper than rendering: used by the audit fuzzer to decide
/// which oracles (round-trip, serve) apply to a generated kernel.
pub fn is_textual(k: &Kernel) -> bool {
    k.instrs.iter().all(|i| i.info().textual)
}

/// Render a whole kernel, emitting `LN:` labels at branch targets.
///
/// Returns `None` if the kernel uses builder-only instructions.
pub fn disassemble(k: &Kernel) -> Option<String> {
    let targets: BTreeSet<usize> = k
        .instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Bra { target, .. } => Some(*target),
            _ => None,
        })
        .collect();
    let mut out = String::new();
    if k.smem_bytes > 0 {
        let _ = writeln!(out, ".shared {};", k.smem_bytes);
    }
    for (pc, i) in k.instrs.iter().enumerate() {
        if targets.contains(&pc) {
            let _ = writeln!(out, "L{pc}:");
        }
        let _ = writeln!(out, "{}", instr_to_asm(i)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn roundtrip_simple_kernel() {
        let src = r#"
            .shared 2048;
            mov %r1, %tid.x;
            mov.s32 %r2, 0;
        LOOP:
            add.s32 %r2, %r2, 1;
            ld.shared.b32 %r3, [%r1+16];
            setp.lt.s32 %p0, %r2, 10;
            @%p0 bra LOOP;
            st.global.b32 [%r4], %r3;
            exit;
        "#;
        let k1 = assemble(src).unwrap();
        let text = disassemble(&k1).expect("kernel is textual");
        let k2 = assemble(&text).unwrap();
        assert_eq!(k1.instrs, k2.instrs);
        assert_eq!(k1.smem_bytes, k2.smem_bytes);
    }

    #[test]
    fn roundtrip_tc_and_cluster_ops() {
        let src = "mma.m16n8k16.f32.f16 t0, t1, t2, t0;\n\
                   wgmma.sp.m64n128k32.f32.f16.rs t0, t1, t2;\n\
                   wgmma.commit_group;\nwgmma.wait_group 0;\n\
                   mapa %r3, %r1, 1;\natom.shared::cluster.add.b32 [%r3], 1;\n\
                   barrier.cluster;\nexit;";
        let k1 = assemble(src).unwrap();
        let text = disassemble(&k1).unwrap();
        let k2 = assemble(&text).unwrap();
        assert_eq!(k1.instrs, k2.instrs);
    }

    #[test]
    fn builder_only_instrs_are_not_textual() {
        use crate::{DType, KernelBuilder, TileId, TilePattern};
        let mut b = KernelBuilder::new("tiles");
        b.fill_tile(TileId(0), DType::F16, 16, 16, TilePattern::Zero);
        b.exit();
        let k = b.build();
        assert!(!is_textual(&k));
        assert!(disassemble(&k).is_none());
    }

    #[test]
    fn is_textual_matches_disassemble() {
        let k = assemble("mov %r1, %tid.x;\nst.global.b32 [%r1], %r1;\nexit;").unwrap();
        assert!(is_textual(&k));
        assert!(disassemble(&k).is_some());
    }
}
