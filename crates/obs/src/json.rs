//! The workspace's one sorted-key object builder. Reports, `hsimd`
//! responses, CLI summaries and [`crate::log`] lines all build their
//! objects here, so identical runs render byte-identical JSON; vendored
//! `serde_json` is the one writer that renders them.

use serde::Value;

/// Build an object with its keys sorted. The sort is stable: a repeated
/// key keeps the order it was given in.
pub fn obj(mut fields: Vec<(impl Ord + Into<String>, Value)>) -> Value {
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_sorts_keys() {
        let v = obj(vec![
            ("zeta", Value::UInt(1)),
            ("alpha", Value::UInt(2)),
            ("mid", Value::UInt(3)),
        ]);
        match v {
            Value::Object(fields) => {
                let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["alpha", "mid", "zeta"]);
            }
            _ => panic!("expected object"),
        }
    }
}
