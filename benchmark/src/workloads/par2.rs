//! The `sim_threads = 2` phase of `engine_serial`'s traced run.
//!
//! Launches at two engine workers are not a workload of their own: on this
//! two-vCPU virtual machine their wall time is set by how long the
//! hypervisor takes to wake a parked vCPU, and that flips between two
//! regimes three times apart for tens of minutes at a stretch (README,
//! noise).  No bound of 25 % or less can hold across such a flip, so the
//! parallel engine is measured per layer only: a few A/B rounds, serial
//! against `sim_threads = 2` on the same roster, with the bitwise checks.
//!
//! Three classes issue almost only SM-local work (`alu`, `dpx`, `mma`);
//! three issue a globally visible operation every few instructions
//! (`stream`, `pchase_busy`, `atomics`) and spend their time in the grant
//! protocol, which is why they are sized far smaller.  `cluster_dsm`
//! cannot be sharded and times the fallback to the serial path.

use super::engine_serial::serial_opts;
use super::{same_stats, LayerView};
use crate::host::process_cpu_s;
use crate::recorder::Recorder;
use crate::roster::{self, Case, Class, SplitMix64};
use hopper_sim::{RunStats, SimOptions};
use std::time::Instant;

/// Class, extra shrink on top of the run's, speed-up metric.
const ROSTER: [(Class, u32, &str); 7] = [
    (Class::Alu, 1, "sim.par2.alu_speedup"),
    (Class::Dpx, 1, "sim.par2.dpx_speedup"),
    (Class::Mma, 1, "sim.par2.mma_speedup"),
    (Class::Stream, 36, "sim.par2.stream_speedup"),
    (Class::PchaseBusy, 24, "sim.par2.pchase_busy_speedup"),
    (Class::Atomics, 40, "sim.par2.atomics_speedup"),
    (Class::ClusterDsm, 1, "sim.par2.fallback_cluster_ratio"),
];

/// A/B rounds; the order flips every round so neither side always runs on
/// the host caches the other just warmed.
const ROUNDS: usize = 3;

fn par_opts() -> SimOptions {
    SimOptions {
        sim_threads: 2,
        ..SimOptions::default()
    }
}

/// One timed launch of `case` under `opts`: seconds, statistics, memory image.
fn launch(case: &Case, opts: SimOptions, rec: &mut Recorder) -> Option<(f64, RunStats, u64)> {
    let (mut gpu, launch, _) = case.instantiate(opts, rec);
    let t0 = Instant::now();
    let stats = gpu.launch(&case.kernel, &launch).ok()?;
    let secs = t0.elapsed().as_secs_f64();
    Some((secs, stats, case.image_digest(&gpu, &launch)))
}

/// `sim_threads=2` must reproduce the serial run bit for bit: statistics
/// and memory image.
pub fn par_matches_serial(serial: (&RunStats, u64), par: (&RunStats, u64)) -> bool {
    same_stats(serial.0, par.0) && serial.1 == par.1
}

/// Run the rounds and report the `sim.par2.*` metrics.
pub fn par_phase(seed: u64, rec: &mut Recorder, view: &mut LayerView<'_>) {
    let mut rng = SplitMix64::new(seed ^ 0x7061_7232);
    let cases: Vec<Case> = ROSTER
        .iter()
        .map(|&(class, extra, _)| roster::case(class, "h800", view.shrink * extra, &mut rng))
        .collect();
    // Seconds per case: (serial, par).
    let mut secs = vec![(0.0f64, 0.0f64); cases.len()];
    let (mut par_wall, mut par_cpu) = (0.0, 0.0);
    for round in 0..ROUNDS {
        for (case, acc) in cases.iter().zip(&mut secs) {
            let (mut serial, mut par) = (None, None);
            for run_par in [round % 2 == 1, round % 2 == 0] {
                if run_par {
                    let c0 = process_cpu_s();
                    par = launch(case, par_opts(), rec);
                    par_cpu += process_cpu_s() - c0;
                } else {
                    serial = launch(case, serial_opts(), rec);
                }
            }
            let ok = match (&serial, &par) {
                (Some(s), Some(p)) => {
                    acc.0 += s.0;
                    acc.1 += p.0;
                    par_wall += p.0;
                    par_matches_serial((&s.1, s.2), (&p.1, p.2))
                }
                _ => false,
            };
            rec.check(
                &format!("{} sim_threads=2 == serial", case.class.name()),
                ok,
            );
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (mut serial_all, mut par_all) = (0.0, 0.0);
    for (&(class, _, metric), &(serial, par)) in ROSTER.iter().zip(&secs) {
        if class == Class::ClusterDsm {
            // Fallback cost: par / serial, 1.0 when falling back is free.
            view.set(metric, ratio(par, serial));
        } else {
            serial_all += serial;
            par_all += par;
            view.set(metric, ratio(serial, par));
        }
    }
    view.set("sim.par2.speedup", ratio(serial_all, par_all));
    view.set("sim.par2.cpu_per_wall", ratio(par_cpu, par_wall));
}
