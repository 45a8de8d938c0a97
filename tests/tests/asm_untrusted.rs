//! The assembler is the untrusted front door of the simulation service:
//! `hsimd` feeds client-supplied kernel text straight into
//! `hopper_isa::asm::assemble`.  These tests pin the hardening contract:
//! arbitrary input must never panic (errors surface only as `AsmError`),
//! whatever is accepted is safe for the engine to index, and the golden
//! example kernels survive a full assemble → disassemble → assemble round
//! trip with identical content digests.

use hopper_isa::asm::assemble;
use hopper_isa::disasm::disassemble;
use proptest::prelude::*;

/// Arbitrary bytes squeezed through lossy UTF-8: exercises control
/// characters, truncated tokens and non-ASCII soup.
fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Near-miss token soup: real mnemonics, registers and punctuation in
/// random order.  Far more likely than raw bytes to reach the deeper
/// parse paths (operand counts, address forms, mma shapes).
fn token_soup() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "mov",
        "add.s32",
        "mad.s32",
        "ld.global.b32",
        "st.shared.b32",
        "setp.lt.s32",
        "bra",
        "exit",
        "bar.sync",
        "atom.shared.add.u32",
        "cp.async.ca.shared.global",
        "mma.sync",
        "wgmma.mma_async",
        "dp4a",
        "%r1",
        "%r999",
        "%r",
        "%p0",
        "%tid.x",
        "%ctaid.x",
        "[",
        "]",
        "[%r2+",
        "4]",
        ",",
        ";",
        ":",
        "@%p0",
        "@!%p1",
        "L0",
        "-",
        "0x",
        "0xffff",
        "42",
        "-9999999999999999999",
        ".",
        "f16",
        "m16n8k16",
        "{",
        "}",
        "\n",
        "\t",
        "//",
        "comment",
    ];
    proptest::collection::vec((0usize..TOKENS.len(), 0u32..4), 0..64).prop_map(|picks| {
        let mut s = String::new();
        for (idx, sep) in picks {
            s.push_str(TOKENS[idx]);
            s.push(if sep == 0 { '\n' } else { ' ' });
        }
        s
    })
}

/// Success or `AsmError` are both fine (a panic fails the test), but an
/// accepted kernel must be one the engine can index.
fn assemble_untrusted(src: &str) {
    if let Ok(k) = assemble(src) {
        assert_eq!(k.validate(), Ok(()), "{src:?}");
        for r in k.instrs.iter().flat_map(|i| i.operands().regs().to_vec()) {
            assert!((r.0 as u32) < k.regs_per_thread, "{r} in {src:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_input_never_panics(src in arbitrary_text()) {
        assemble_untrusted(&src);
    }

    #[test]
    fn token_soup_never_panics(src in token_soup()) {
        assemble_untrusted(&src);
    }
}

/// Malformed inputs that target specific parser paths must come back as
/// `AsmError` (with a line number), never as a panic or a bogus kernel.
#[test]
fn targeted_malformed_inputs_error_cleanly() {
    let cases = [
        "",                                     // empty: no exit
        "mov %r1;",                             // missing operand
        "mov %r1, %r2",                         // missing semicolon, then EOF
        "bra nowhere; exit;",                   // undefined label
        "ld.global.b32 %r1, [%r2+; exit;",      // unterminated address
        "mov %r1, 99999999999999999999; exit;", // immediate overflow
        "@%p9 mov %r1, 0; exit;",               // bad predicate index is fine or error, not panic
        "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32 {%r0}, {%r1}, {%r2}, {%r3}",
        "\u{0}\u{1}\u{2}exit;", // control bytes
        "exit",                 // missing final semicolon
    ];
    for src in cases {
        match assemble(src) {
            Ok(k) => assert!(
                matches!(k.instrs.last(), Some(hopper_isa::Instr::Exit)),
                "accepted kernel must still end with exit: {src:?}"
            ),
            Err(e) => {
                // Errors must render and carry a plausible location.
                let msg = e.to_string();
                assert!(!msg.is_empty(), "empty error message for {src:?}");
            }
        }
    }
}

/// Round-trip the golden example kernels: assemble → disasm → assemble
/// reproduces the exact instruction stream, and the content digest —
/// the serve cache key — is preserved.
#[test]
fn golden_kernels_roundtrip_with_stable_digest() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/kernels");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/kernels exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("asm") {
            continue;
        }
        seen += 1;
        let src = std::fs::read_to_string(&path).expect("readable golden kernel");
        let k1 = assemble(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let text = disassemble(&k1)
            .unwrap_or_else(|| panic!("{}: golden kernel must be textual", path.display()));
        let k2 = assemble(&text).unwrap_or_else(|e| panic!("{}: reparse: {e}", path.display()));
        assert_eq!(k1.instrs, k2.instrs, "{}", path.display());
        assert_eq!(k1.digest(), k2.digest(), "{}", path.display());
        assert_eq!(k1.digest_hex(), k2.digest_hex(), "{}", path.display());
    }
    assert!(
        seen >= 2,
        "expected at least two golden kernels, found {seen}"
    );
}
