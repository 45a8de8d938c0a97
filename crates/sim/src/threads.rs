//! Inert shim left from the removed intra-kernel parallel driver.

/// Does nothing.  Kept only because `benchmark/` (`engine_serial.rs`,
/// `par2.rs`, `paper_sweep.rs`) names it; ROADMAP item 4(a) deletes it
/// with those readers.
#[doc(hidden)]
pub fn set_sweep_jobs(_jobs: usize) {}
