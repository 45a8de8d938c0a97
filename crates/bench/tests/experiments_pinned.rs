//! The harnesses `hbench`'s `paper_sweep` times must keep reproducing their
//! committed `experiments.json` entries byte for byte, so a change meant
//! to make the simulator faster cannot move a measured cell unnoticed.

use hopper_micro::report::Report;

/// `rep` exactly as `gen-experiments` writes it inside the top-level array.
fn serialized(rep: &Report) -> String {
    let json = serde_json::to_string_pretty(std::slice::from_ref(rep)).expect("serialise");
    json.strip_prefix("[\n")
        .and_then(|s| s.strip_suffix("\n]"))
        .expect("a one-element array")
        .to_string()
}

/// The committed entry whose `id` is `id`, as its bytes in the file.
fn committed_entry(committed: &str, id: &str) -> String {
    let key = committed
        .find(&format!("\"id\": \"{id}\""))
        .unwrap_or_else(|| panic!("experiments.json has no entry {id:?}"));
    let start = committed[..key].rfind("\n  {").expect("entry start") + 1;
    let end = start + committed[start..].find("\n  }").expect("entry end") + "\n  }".len();
    committed[start..end].to_string()
}

fn assert_pinned(rep: Report) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments.json");
    let committed = std::fs::read_to_string(path).expect("read experiments.json");
    let (old, new) = (committed_entry(&committed, &rep.id), serialized(&rep));
    if let Some((a, b)) = old.lines().zip(new.lines()).find(|(a, b)| a != b) {
        panic!("{}: experiments.json has\n{a}\nregenerated\n{b}", rep.id);
    }
    assert_eq!(old, new, "{}: entry differs from experiments.json", rep.id);
}

#[test]
fn table04_is_pinned() {
    assert_pinned(hopper_bench::table04());
}

#[test]
fn table05_is_pinned() {
    assert_pinned(hopper_bench::table05());
}

#[test]
fn fig07_is_pinned() {
    assert_pinned(hopper_bench::fig07());
}

#[test]
fn fig08_is_pinned() {
    assert_pinned(hopper_bench::fig08());
}

#[test]
fn fig09_is_pinned() {
    assert_pinned(hopper_bench::fig09());
}
