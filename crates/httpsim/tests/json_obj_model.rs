//! Model-checking [`JsonObj`] against a naive `BTreeMap<String, Json>`
//! reference.
//!
//! `JsonObj` is a sorted `Vec` with a length-first linear lookup, an
//! append fast path for ascending keys and a sort-once builder. The
//! reference is the map it replaced: obviously sorted, obviously
//! last-write-wins. Random insert / get / overwrite sequences over a key
//! pool full of shared prefixes and equal lengths must observe the same
//! return values, length, iteration order and serialized bytes on both,
//! whether the object is built by `insert`, by [`Json::obj`], by
//! `collect`, or by the parser.

use hb_http::{HStr, Json, JsonObj};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Keys with shared prefixes (`hb_s…`, `bid…`), equal lengths
/// (`hb_slot`/`hb_size`, `aa`/`ab`/`ba`) and the empty key. All are
/// plain `[a-z_]`, so serializing one needs no escapes.
const KEYS: [&str; 40] = [
    "",
    "a",
    "b",
    "aa",
    "ab",
    "ba",
    "bb",
    "aaa",
    "aab",
    "abb",
    "bid",
    "bids",
    "bidder",
    "cpm",
    "cpx",
    "channel",
    "hb_",
    "hb_s",
    "hb_pb",
    "hb_adid",
    "hb_slot",
    "hb_size",
    "hb_sizes",
    "hb_bidder",
    "hb_source",
    "hb_auction",
    "hb_currency",
    "size",
    "slot",
    "slots",
    "code",
    "codes",
    "price",
    "prices",
    "winner",
    "winners",
    "timestamp",
    "z",
    "zz",
    "zzz",
];

/// One step of a random sequence.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert (or overwrite) `KEYS[k]` with a number.
    Insert(usize, u32),
    /// Look `KEYS[k]` up.
    Get(usize),
    /// Overwrite `KEYS[k]` in place through `get_mut`, when present.
    Mutate(usize, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS.len(), 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..KEYS.len()).prop_map(Op::Get),
        (0..KEYS.len(), 0u32..1000).prop_map(|(k, v)| Op::Mutate(k, v)),
    ]
}

/// Up to 40 `(key index, value)` writes, duplicates included.
fn pairs_strategy() -> impl Strategy<Value = Vec<(usize, u32)>> {
    proptest::collection::vec((0..KEYS.len(), 0u32..1000), 0..41)
}

/// The bytes the former `BTreeMap<HStr, Json>` object serialized to:
/// ascending keys, compact values.
fn reference_bytes(model: &BTreeMap<String, Json>) -> String {
    let body: Vec<String> = model
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", v.to_string_compact()))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Everything observable about an object must match the model.
fn check_against_model(obj: &JsonObj, model: &BTreeMap<String, Json>) -> Result<(), TestCaseError> {
    prop_assert_eq!(obj.len(), model.len());
    prop_assert_eq!(obj.is_empty(), model.is_empty());
    let got: Vec<(&str, &Json)> = obj.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let want: Vec<(&str, &Json)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
    prop_assert_eq!(got, want);
    for key in KEYS {
        prop_assert_eq!(obj.get(key), model.get(key));
    }
    let bytes = Json::Obj(obj.clone()).to_string_compact();
    prop_assert_eq!(&bytes, &reference_bytes(model));
    // And the bytes parse back to the same object.
    prop_assert_eq!(Json::parse(&bytes).unwrap(), Json::Obj(obj.clone()));
    Ok(())
}

proptest! {
    /// `insert` / `get` / `get_mut` ≡ `BTreeMap`, step by step.
    #[test]
    fn insert_get_overwrite_match_btreemap(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut obj = JsonObj::new();
        let mut model: BTreeMap<String, Json> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let value = Json::num(f64::from(v));
                    let prev = obj.insert(KEYS[k], value.clone());
                    prop_assert_eq!(prev, model.insert(KEYS[k].to_string(), value));
                }
                Op::Get(k) => {
                    prop_assert_eq!(obj.get(KEYS[k]), model.get(KEYS[k]));
                }
                Op::Mutate(k, v) => {
                    let value = Json::str(v.to_string());
                    match (obj.get_mut(KEYS[k]), model.get_mut(KEYS[k])) {
                        (Some(a), Some(b)) => {
                            *a = value.clone();
                            *b = value;
                        }
                        (None, None) => {}
                        (a, b) => prop_assert!(false, "get_mut disagrees: {:?} vs {:?}", a, b),
                    }
                }
            }
            prop_assert_eq!(obj.len(), model.len());
        }
        check_against_model(&obj, &model)?;
    }

    /// `Json::obj` sorts once and keeps the last write to a duplicate
    /// key, exactly like inserting the pairs one by one.
    #[test]
    fn obj_builder_is_last_write_wins(pairs in pairs_strategy()) {
        let mut model: BTreeMap<String, Json> = BTreeMap::new();
        for &(k, v) in &pairs {
            model.insert(KEYS[k].to_string(), Json::num(f64::from(v)));
        }
        let built = Json::obj(pairs.iter().map(|&(k, v)| (KEYS[k], Json::num(f64::from(v)))));
        check_against_model(built.as_obj().unwrap(), &model)?;
        // `collect` over owned keys takes the same builder path.
        let collected: JsonObj = pairs
            .iter()
            .map(|&(k, v)| (HStr::new(KEYS[k]), Json::num(f64::from(v))))
            .collect();
        check_against_model(&collected, &model)?;
    }

    /// The parser inserts in document order: unsorted keys and repeated
    /// keys land exactly where the model puts them.
    #[test]
    fn parser_matches_btreemap(pairs in pairs_strategy()) {
        let mut model: BTreeMap<String, Json> = BTreeMap::new();
        let mut doc = Vec::new();
        for &(k, v) in &pairs {
            model.insert(KEYS[k].to_string(), Json::num(f64::from(v)));
            doc.push(format!("\"{}\": {v}", KEYS[k]));
        }
        let parsed = Json::parse(&format!("{{ {} }}", doc.join(", "))).unwrap();
        check_against_model(parsed.as_obj().unwrap(), &model)?;
    }
}
