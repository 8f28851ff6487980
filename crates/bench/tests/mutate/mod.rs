//! What the seeded mutation suites share: the value paths of a JSON tree,
//! the byte-level mutations both draw from, and the message of a caught
//! panic.

use std::any::Any;

use wsn_data::rng::SeededRng;
use wsn_json::JsonValue;

/// Every value of `tree` below the root, as a path of child indices.
pub fn paths(tree: &JsonValue, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&JsonValue> = match tree {
        JsonValue::Array(items) => items.iter().collect(),
        JsonValue::Object(pairs) => pairs.iter().map(|(_, v)| v).collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        prefix.push(i);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

/// The value at `path` (one of [`paths`]).
pub fn at_mut<'v>(tree: &'v mut JsonValue, path: &[usize]) -> &'v mut JsonValue {
    path.iter().fold(tree, |node, &i| match node {
        JsonValue::Array(items) => &mut items[i],
        JsonValue::Object(pairs) => &mut pairs[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// Flips 1–4 random bits of `bytes`; returns the label.
pub fn flip_bits(rng: &mut SeededRng, bytes: &mut [u8]) -> String {
    let flips = 1 + rng.gen_index(4);
    for _ in 0..flips {
        let at = rng.gen_index(bytes.len());
        bytes[at] ^= 1 << rng.gen_index(8);
    }
    format!("{flips} bit flips")
}

/// Truncates `bytes` to a random shorter length; returns the label.
pub fn truncate(rng: &mut SeededRng, bytes: &mut Vec<u8>) -> String {
    let len = rng.gen_index(bytes.len());
    bytes.truncate(len);
    format!("truncated to {len}")
}

/// Copies up to 64 bytes of `bytes` over another place in it; returns the
/// label.
pub fn splice(rng: &mut SeededRng, bytes: &mut Vec<u8>) -> String {
    let from = rng.gen_index(bytes.len());
    let len = 1 + rng.gen_index((bytes.len() - from).min(64));
    let to = rng.gen_index(bytes.len());
    let piece = bytes[from..from + len].to_vec();
    bytes.splice(to..(to + len).min(bytes.len()), piece);
    format!("{len} bytes from {from} spliced over {to}")
}

/// The message a caught panic carried.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}
