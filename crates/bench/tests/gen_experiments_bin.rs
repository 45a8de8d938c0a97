//! The command line of the real `gen-experiments` binary: every usage
//! error must exit 2 at once, before the sweep starts.

#[path = "../../obs/tests/support/cli_contract.rs"]
mod cli_contract;

#[test]
fn gen_experiments_keeps_the_command_line_contract() {
    // An integer flag given 2^64 + 2 must not wrap to 2 and run the whole
    // sweep; the engine-worker flag is gone, so it is an unknown flag.
    let bad: [&[&str]; 3] = [
        &["-j", "18446744073709551618"],
        &["-j", "x"],
        &["--sim-threads", "2"],
    ];
    let gen = env!("CARGO_BIN_EXE_gen-experiments");
    cli_contract::assert_contract(gen, &["-j, --jobs"], &bad);
    let (_, help, _) = cli_contract::run(gen, &["--help"]);
    assert!(!help.contains("--sim-threads"), "{help}");
}
