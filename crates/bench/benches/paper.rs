//! The paper's tables and figures, each as its paper-vs-measured
//! comparison (Table VI, the PTX→SASS lowering matrix, as text):
//!
//! ```text
//! cargo bench --bench paper                   # all of them
//! cargo bench --bench paper -- table07 fig08  # just these
//! ```

use hopper_bench::{table06_text, HARNESSES};
use hopper_obs::cli::{Arg, Args, Flag, Spec};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    name: "paper",
    about: "the paper's tables and figures, paper vs measured",
    args: &[Arg::optional("ID", "table03 … table14 | fig03 … fig09 (default: all)").repeated()],
    flags: &[Flag::switch("bench", "ignored (`cargo bench` passes it)")],
    ..Spec::NONE
};

fn main() {
    let args = Args::from_env(&SPEC);
    let known = |id: &str| id == "table06" || HARNESSES.iter().any(|h| h.0 == id);
    if let Some(id) = args.args("ID").iter().find(|id| !known(id)) {
        args.fail(format!("unknown table or figure `{id}`"));
    }
    let all = std::iter::once("table06").chain(HARNESSES.iter().map(|h| h.0));
    let ids: Vec<&str> = match args.args("ID") {
        [] => all.collect(),
        given => given.iter().map(String::as_str).collect(),
    };
    for id in ids {
        match HARNESSES.iter().find(|h| h.0 == id) {
            Some((_, harness)) => println!("{}", harness().render()),
            None => println!("{}", table06_text()),
        }
    }
}
