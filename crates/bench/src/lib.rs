//! Harness functions regenerating every table and figure of the paper.
//!
//! [`HARNESSES`] lists them by id; `gen-experiments` (a bin in this crate)
//! runs them all and rewrites `EXPERIMENTS.md`, and
//! `cargo bench --bench paper -- ID...` prints the paper-vs-measured
//! comparison of the ones named.

#![warn(missing_docs)]

use hopper_micro::paper;
use hopper_micro::report::Report;
use hopper_sim::DeviceConfig;
use hopper_te::{CostModel, LayerConfig, Linear, LlmModel, LlmRunner, Precision, TransformerLayer};

/// Table III: device properties (static, checked against the paper).
pub fn table03() -> Report {
    let mut rep = Report::new("Table III", "Device properties (Ampere / Ada / Hopper)");
    for (dev, cores, tc, mem_gb, bw) in [
        (DeviceConfig::a100(), 108 * 64, 432.0, 40.0, 1555.0),
        (DeviceConfig::rtx4090(), 128 * 128, 512.0, 24.0, 1008.0),
        (DeviceConfig::h800(), 114 * 128, 456.0, 80.0, 2039.0),
    ] {
        rep.push(
            format!("{} CUDA cores", dev.name),
            cores as f64,
            (dev.num_sms * dev.cores_per_sm) as f64,
            "",
        );
        rep.push(
            format!("{} tensor cores", dev.name),
            tc,
            dev.total_tensor_cores() as f64,
            "",
        );
        rep.push(
            format!("{} memory", dev.name),
            mem_gb,
            dev.mem_bytes as f64 / (1u64 << 30) as f64,
            "GB",
        );
        rep.push(
            format!("{} theoretical BW", dev.name),
            bw,
            dev.dram_bw_theoretical / 1e9,
            "GB/s",
        );
    }
    rep
}

/// Table IV: memory latencies.
pub fn table04() -> Report {
    hopper_micro::membench::table_iv()
}

/// Table V: memory throughputs.
pub fn table05() -> Report {
    hopper_micro::membench::table_v()
}

/// Table VI: PTX→SASS lowering (text, not numeric).
pub fn table06_text() -> String {
    hopper_micro::tcbench::table_vi_text()
}

/// Table VII: dense/sparse `mma` on all devices.
pub fn table07() -> Report {
    hopper_micro::tcbench::table_vii()
}

/// Table VIII: dense `wgmma`.
pub fn table08() -> Report {
    hopper_micro::tcbench::table_viii()
}

/// Table IX: sparse `wgmma`.
pub fn table09() -> Report {
    hopper_micro::tcbench::table_ix()
}

/// Table X: `wgmma` N sweep.
pub fn table10() -> Report {
    hopper_micro::tcbench::table_x()
}

/// Table XI: `mma` power/efficiency.
pub fn table11() -> Report {
    hopper_micro::tcbench::table_xi()
}

/// Table XII: LLM generation throughput.
pub fn table12() -> Report {
    let mut rep = Report::new("Table XII", "LLM inference throughput (tokens/s)");
    for row in &paper::TABLE_XII {
        let dev = match row.gpu {
            "RTX4090" => DeviceConfig::rtx4090(),
            "A100" => DeviceConfig::a100(),
            _ => DeviceConfig::h800(),
        };
        let model = match row.model {
            "llama-3B" => LlmModel::llama_3b(),
            "llama-2-7B" => LlmModel::llama2_7b(),
            _ => LlmModel::llama2_13b(),
        };
        let runner = LlmRunner::new(dev);
        for (p, paper_val) in [
            (Precision::Fp32, row.fp32),
            (Precision::Bf16, row.bf16),
            (Precision::Fp8, row.fp8),
        ] {
            let label = format!("{} {} {}", row.gpu, row.model, p.label());
            let got = runner.generate(&model, p).tokens_per_s();
            match (paper_val, got) {
                (Some(want), Some(g)) => rep.push(label, want, g, "tok/s"),
                (None, None) => rep.push_measured(format!("{label} (OOM/unsupported ✓)"), 0.0, ""),
                (None, Some(g)) => {
                    rep.push_measured(format!("{label} (paper OOM, we ran!)"), g, "tok/s")
                }
                (Some(want), None) => {
                    rep.push(format!("{label} (we OOM, paper ran)"), want, 0.0, "tok/s")
                }
            }
        }
    }
    rep
}

/// Table XIII: async-copy GEMM on the H800.
pub fn table13() -> Report {
    hopper_micro::asyncbench::table_async(DeviceConfig::h800(), &paper::TABLE_XIII)
}

/// Table XIV: async-copy GEMM on the A100.
pub fn table14() -> Report {
    hopper_micro::asyncbench::table_async(DeviceConfig::a100(), &paper::TABLE_XIV)
}

/// Fig. 3: te.Linear FP8 operator-time proportions.
pub fn fig03() -> Report {
    let mut rep = Report::new("Fig 3", "te.Linear FP8 time breakdown (fraction of total)");
    let cm = CostModel::new(DeviceConfig::h800());
    for n in [1024u64, 2048, 4096, 8192, 16384] {
        let b = Linear::square(n).forward(&cm, Precision::Fp8);
        let t = b.total();
        rep.push_measured(format!("N={n} gemm"), b.gemm_s / t, "frac");
        rep.push_measured(
            format!("N={n} cast+amax"),
            (b.cast_s + b.amax_s) / t,
            "frac",
        );
        rep.push_measured(format!("N={n} rescale"), b.rescale_s / t, "frac");
    }
    rep.note("paper shows conversion dominating at small N; the GEMM share grows with N");
    rep
}

/// Fig. 4: te.Linear throughput across N, dtype, device.
pub fn fig04() -> Report {
    let mut rep = Report::new("Fig 4", "te.Linear matmul throughput (GFLOPS)");
    for dev in DeviceConfig::all() {
        let cm = CostModel::new(dev);
        for p in [Precision::Fp32, Precision::Fp16, Precision::Fp8] {
            if p == Precision::Fp8 && !cm.supports_fp8() {
                continue;
            }
            for n in [1024u64, 4096, 8192, 16384] {
                let t = Linear::square(n).throughput_gflops(&cm, p);
                rep.push_measured(
                    format!("{} {} N={n}", cm.device().name, p.label()),
                    t,
                    "GFLOPS",
                );
            }
        }
    }
    rep.note("paper's figure is unlabelled; tests assert the FP8 crossover and ~2× at N=16384");
    rep
}

/// Fig. 5: te.TransformerLayer latency.
pub fn fig05() -> Report {
    let mut rep = Report::new(
        "Fig 5",
        "te.TransformerLayer encode latency (ms), input (4,512,h)",
    );
    for dev in DeviceConfig::all() {
        let cm = CostModel::new(dev);
        for p in [Precision::Fp32, Precision::Fp16, Precision::Fp8] {
            if p == Precision::Fp8 && !cm.supports_fp8() {
                continue;
            }
            for cfg in LayerConfig::table_ii() {
                let l = TransformerLayer::paper_shape(cfg);
                rep.push_measured(
                    format!("{} {} h={}", cm.device().name, p.label(), cfg.hidden),
                    l.forward_ms(&cm, p),
                    "ms",
                );
            }
        }
    }
    rep
}

/// Fig. 6: DPX latency.
pub fn fig06() -> Report {
    hopper_micro::dpxbench::fig6()
}

/// Fig. 7: DPX throughput + block sweep.
pub fn fig07() -> Report {
    hopper_micro::dpxbench::fig7()
}

/// Fig. 8: DSM ring-based copy.
pub fn fig08() -> Report {
    hopper_micro::dsmbench::fig8()
}

/// Fig. 9: DSM histogram.
pub fn fig09() -> Report {
    hopper_micro::dsmbench::fig9()
}

/// A harness and the id the `paper` bench knows it by.
pub type Harness = (&'static str, fn() -> Report);

/// Every harness with a numeric report, in the order `EXPERIMENTS.md`
/// lists them.  Table VI is text, not a report: [`table06_text`].
pub const HARNESSES: [Harness; 18] = [
    ("table03", table03),
    ("table04", table04),
    ("table05", table05),
    ("table07", table07),
    ("table08", table08),
    ("table09", table09),
    ("table10", table10),
    ("table11", table11),
    ("table12", table12),
    ("table13", table13),
    ("table14", table14),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The report id a harness id stands for: `table07` is `Table VII`.
    fn report_id(id: &str) -> String {
        const ROMAN: [&str; 15] = [
            "", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII", "XIII",
            "XIV",
        ];
        match (id.strip_prefix("table"), id.strip_prefix("fig")) {
            (Some(n), _) => format!("Table {}", ROMAN[n.parse::<usize>().unwrap()]),
            (_, Some(n)) => format!("Fig {}", n.parse::<u32>().unwrap()),
            _ => panic!("`{id}` is neither a table nor a figure"),
        }
    }

    #[test]
    fn harnesses_are_unique_and_in_experiments_md_order() {
        let ids: Vec<&str> = HARNESSES.iter().map(|h| h.0).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "{ids:?}");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let md = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        let headings = md.lines().filter_map(|l| l.strip_prefix("### "));
        let sections: Vec<&str> = headings.map(|h| h.split(" — ").next().unwrap()).collect();
        let want: Vec<String> = ids.iter().map(|id| report_id(id)).collect();
        assert_eq!(sections, want);
        // The harnesses that simulate nothing run here; each returns the
        // report its id names.
        for (id, harness) in HARNESSES {
            if ["table03", "fig03", "fig04", "fig05"].contains(&id) {
                assert_eq!(harness().id, report_id(id));
            }
        }
    }

    #[test]
    fn table03_is_exact() {
        let r = table03();
        assert_eq!(
            r.pass_rate(0.001),
            1.0,
            "device properties must match Table III exactly"
        );
    }

    #[test]
    fn fig03_proportions_are_proportions() {
        let r = fig03();
        // Every N's three fractions sum to ~1.
        for chunk in r.cells.chunks(3) {
            let sum: f64 = chunk.iter().filter_map(|c| c.measured).sum();
            assert!((sum - 1.0).abs() < 1e-9, "fractions must sum to 1: {sum}");
        }
        // GEMM share grows monotonically with N.
        let gemm: Vec<f64> = r
            .cells
            .iter()
            .filter(|c| c.label.ends_with("gemm"))
            .map(|c| c.measured.unwrap())
            .collect();
        assert!(gemm.windows(2).all(|w| w[1] >= w[0]), "{gemm:?}");
    }

    #[test]
    fn fig05_latencies_ordered_by_hidden_size() {
        let r = fig05();
        // Within each (device, precision) series, latency grows with h.
        for series in r.cells.chunks(5) {
            let vals: Vec<f64> = series.iter().map(|c| c.measured.unwrap()).collect();
            assert!(vals.windows(2).all(|w| w[1] > w[0]), "{vals:?}");
        }
    }

    #[test]
    fn table06_matches_paper_lowerings() {
        let t = table06_text();
        for needle in [
            "HMMA.16816.F16",
            "HGMMA.64x256x16.F32",
            "QGMMA.64x256x32.F32.E4M3.E4M3",
            "IGMMA.64x256x32.S8.S8",
            "BGMMA.64x256x256.AND.POPC",
            "IMAD.MOV.U32",
        ] {
            assert!(
                t.contains(needle),
                "missing {needle} in:
{t}"
            );
        }
    }

    #[test]
    fn table12_no_surprise_cells() {
        let r = table12();
        for c in &r.cells {
            assert!(!c.label.contains("we ran!"), "{}", c.label);
            assert!(!c.label.contains("we OOM"), "{}", c.label);
        }
        assert!(
            r.pass_rate(0.20) == 1.0,
            "worst dev {:.2}",
            r.worst_ratio_dev()
        );
    }
}
