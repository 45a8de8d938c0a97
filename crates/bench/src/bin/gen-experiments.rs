//! Regenerates `EXPERIMENTS.md` from every harness.
//!
//! Run with `cargo run --release -p hopper-bench --bin gen-experiments`
//! (`-- --help` lists the flags).  `--jobs` fans the independent harnesses
//! over worker threads; the output is byte-identical at any count.

use hopper_bench::{table06_text, HARNESSES};
use hopper_obs::cli::{Args, Flag, Spec};
use rayon::prelude::*;
use std::fmt::Write as _;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "gen-experiments",
    about: "regenerate EXPERIMENTS.md and experiments.json from every harness",
    flags: &[
        Flag::value("jobs", "N", "worker threads for the harnesses (default 0 = auto)").short("j"),
    ],
    ..Spec::NONE
};

fn main() {
    let args = Args::from_env(&SPEC);
    let jobs: usize = args.value("jobs").unwrap_or(0);
    if jobs > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build_global()
            .expect("configure thread pool");
    }
    let mut md = String::from(
        "# EXPERIMENTS — paper vs. reproduction\n\n\
         Auto-generated by `cargo run --release -p hopper-bench --bin gen-experiments`.\n\n\
         Every row compares the paper's published value with this repository's\n\
         simulated measurement; `—` marks cells the paper leaves blank (×/OOM)\n\
         or values the paper's figures do not label numerically.  See\n\
         `DESIGN.md` for the substitution rationale and the calibration\n\
         anchors.\n\n",
    );
    let _ = writeln!(
        md,
        "## Table VI — SASS lowering\n\n```text\n{}```\n",
        table06_text()
    );
    // Each harness builds its own GPUs, so they are independent; the
    // par_iter shim collects in declaration order, keeping the generated
    // markdown byte-identical at any --jobs count.
    let json_reports: Vec<hopper_micro::report::Report> = HARNESSES
        .par_iter()
        .map(|&(_, f)| {
            let t0 = std::time::Instant::now();
            let rep = f();
            eprintln!(
                "[gen-experiments] {} done ({} rows, {:.1}s)",
                rep.id,
                rep.cells.len(),
                t0.elapsed().as_secs_f64()
            );
            rep
        })
        .collect();
    let mut body = String::new();
    for rep in &json_reports {
        body.push_str(&rep.render_markdown());
    }
    // Agreement summary up front.
    md.push_str(
        "## Agreement summary\n\n\
         | experiment | comparable rows | within 10 % | within 20 % | median dev | worst dev |\n\
         |---|---|---|---|---|---|\n",
    );
    for rep in &json_reports {
        let mut devs: Vec<f64> = rep
            .cells
            .iter()
            .filter_map(|c| c.ratio())
            .map(|r| (r - 1.0).abs())
            .collect();
        if devs.is_empty() {
            let _ = writeln!(md, "| {} | — | — | — | — | — |", rep.id);
            continue;
        }
        devs.sort_by(f64::total_cmp);
        let median = devs[devs.len() / 2];
        let worst = *devs.last().unwrap();
        let _ = writeln!(
            md,
            "| {} | {} | {:.0} % | {:.0} % | {:.1} % | {:.1} % |",
            rep.id,
            devs.len(),
            rep.pass_rate(0.10) * 100.0,
            rep.pass_rate(0.20) * 100.0,
            median * 100.0,
            worst * 100.0
        );
    }
    let _ = writeln!(md);
    md.push_str(&body);
    // Write at the workspace root regardless of invocation cwd.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("EXPERIMENTS.md");
    std::fs::write(&path, &md).expect("write EXPERIMENTS.md");
    eprintln!("wrote {} ({} bytes)", path.display(), md.len());
    // Machine-readable twin.
    let json = serde_json::to_string_pretty(&json_reports).expect("serialise");
    let jpath = root.join("experiments.json");
    std::fs::write(&jpath, &json).expect("write experiments.json");
    eprintln!("wrote {} ({} bytes)", jpath.display(), json.len());
}
