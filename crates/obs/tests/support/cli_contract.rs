//! The command-line contract of `hopper_obs::cli`, checked on a real
//! binary.  Test targets of the packages that own the binaries include
//! this file with `#[path]`: `CARGO_BIN_EXE_*` only resolves there.

use std::process::Command;

/// Run `exe args`: `(exit code, stdout, stderr)`.
pub fn run(exe: &str, args: &[&str]) -> (i32, String, String) {
    let mut cmd = Command::new(exe);
    let out = cmd
        .args(args)
        .env_remove("HOPPER_LOG")
        .output()
        .expect("spawn binary");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    let code = out.status.code().expect("exit code");
    (code, text(out.stdout), text(out.stderr))
}

/// `--help` prints every flag in `flags` on stdout, nothing on stderr, and
/// exits 0.  An unknown flag and each line of `bad` are usage errors: one
/// JSON `invalid arguments` event first on stderr, then the help, exit 2.
pub fn assert_contract(exe: &str, flags: &[&str], bad: &[&[&str]]) {
    let (code, help, err) = run(exe, &["--help"]);
    assert_eq!((code, err.as_str()), (0, ""), "{exe} --help");
    for flag in flags {
        assert!(help.contains(flag), "{exe} --help lacks {flag}:\n{help}");
    }
    for args in bad.iter().chain([&["--bogus"][..]].iter()) {
        let (code, out, err) = run(exe, args);
        assert_eq!(code, 2, "{exe} {args:?}: {err}");
        assert!(out.is_empty(), "{exe} {args:?} printed {out}");
        let event = err.lines().next().unwrap_or("");
        assert!(event.starts_with('{') && event.ends_with('}'), "{event}");
        assert!(event.contains(r#""msg":"invalid arguments""#), "{event}");
        assert!(err.ends_with(&help), "{exe} {args:?}: the help follows");
        assert!(!err.contains("panicked at"), "{err}");
    }
}
