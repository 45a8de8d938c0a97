//! `hbench`: end-to-end and per-layer benchmark of the hopper-dissect
//! stack.  See `README.md` for the metric catalogue and how to read it.

pub mod catalogue;
pub mod compare;
pub mod host;
pub mod recorder;
pub mod roster;
pub mod runner;
pub mod selftest;
pub mod stats;
pub mod workloads;
