//! Vendored `serde_json` is the workspace's one JSON writer and
//! `hopper_obs::json::obj` its one object builder: any value, rendered
//! compact or pretty, parses back equal, and `obj` sorts any keys.

use hopper_obs::json::obj;
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::Value;

/// Any `char`, with the ones an escaper can get wrong drawn often:
/// quotes, backslashes, controls and characters outside the BMP.
fn any_char(rng: &mut TestRng) -> char {
    const TRICKY: &str = "\"\\\n\r\t\u{7f}\u{ffff}\u{1f680}";
    match rng.index(4) {
        0 => TRICKY.chars().nth(rng.index(8)).unwrap(),
        1 => char::from(rng.index(0x20) as u8),
        _ => loop {
            if let Some(c) = char::from_u32(rng.index(0x11_0000) as u32) {
                break c;
            }
        },
    }
}

fn any_string(rng: &mut TestRng) -> String {
    (0..rng.index(10)).map(|_| any_char(rng)).collect()
}

/// Raw bit patterns reach every exponent, subnormals and integral floats
/// far above 1e15; small integral and fractional values are drawn too.
fn any_finite(rng: &mut TestRng) -> f64 {
    match rng.index(3) {
        0 => rng.index(2001) as f64 - 1000.0,
        1 => (rng.next_f64() - 0.5) * 1e6,
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn any_value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.index(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.index(2) == 1),
        // JSON has one integer type, and the parser reads a non-negative
        // one as `UInt`; only negative integers are `Int`.
        2 => match rng.next_u64() as i64 {
            i if i < 0 => Value::Int(i),
            i => Value::UInt(i as u64),
        },
        3 => Value::UInt(rng.next_u64()),
        4 => Value::Float(any_finite(rng)),
        5 => Value::Str(any_string(rng)),
        6 => Value::Array(
            (0..rng.index(5))
                .map(|_| any_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.index(5))
                .map(|_| (any_string(rng), any_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A value nested up to `.0` levels deep.
struct AnyValue(u32);

impl Strategy for AnyValue {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        any_value(rng, self.0)
    }
}

/// Object fields with arbitrary keys, repeats included.
struct AnyFields;

impl Strategy for AnyFields {
    type Value = Vec<(String, Value)>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let keys = [any_string(rng), any_string(rng)];
        (0..rng.index(8))
            .map(|_| {
                let key = match rng.index(3) {
                    0 => keys[rng.index(2)].clone(),
                    _ => any_string(rng),
                };
                (key, any_value(rng, 1))
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn compact_and_pretty_renders_parse_back_equal(v in AnyValue(3)) {
        let compact = v.to_string();
        prop_assert_eq!(serde_json::from_str(&compact).unwrap(), v.clone(), "{}", compact);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(serde_json::from_str(&pretty).unwrap(), v, "{}", pretty);
    }

    #[test]
    fn obj_sorts_keys_and_keeps_every_field(fields in AnyFields) {
        let v = obj(fields.clone());
        let out = v.as_object().expect("an object");
        prop_assert!(out.windows(2).all(|w| w[0].0 <= w[1].0), "{:?}", out);
        // A stable sort: equal keys keep their order.
        for key in fields.iter().map(|(k, _)| k) {
            let given: Vec<_> = fields.iter().filter(|(k, _)| k == key).collect();
            let kept: Vec<_> = out.iter().filter(|(k, _)| k == key).collect();
            prop_assert_eq!(given, kept);
        }
        prop_assert_eq!(out.len(), fields.len());
        prop_assert_eq!(serde_json::from_str(&v.to_string()).unwrap(), v);
    }
}
