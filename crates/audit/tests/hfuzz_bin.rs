//! The real `hfuzz` binary's command line; a fuzz run itself is
//! `fuzz_smoke.rs`'s job and `scripts/check.sh`'s.

#[path = "../../obs/tests/support/cli_contract.rs"]
mod cli_contract;

#[test]
fn hfuzz_keeps_the_command_line_contract() {
    let flags = [
        "--seed",
        "--iters",
        "--devices",
        "--minimize",
        "--serve-every",
        "--out",
    ];
    let bad: [&[&str]; 4] = [
        &["--iters", "x"],
        &["--devices", "h800,h900"],
        &["--serve-every=18446744073709551616"],
        &["--block", "x"],
    ];
    cli_contract::assert_contract(env!("CARGO_BIN_EXE_hfuzz"), &flags, &bad);
}
