//! Property tests for the detector's classification and list-matching
//! invariants.

use hb_core::{classify_request, is_hb_param, PartnerEntry, PartnerList, RequestKind};
use hb_http::{Request, RequestId, Url};
use proptest::prelude::*;

fn arb_host() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9]{0,10}(\\.[a-z][a-z0-9]{0,10}){1,3}").unwrap()
}

fn arb_path() -> impl Strategy<Value = String> {
    proptest::string::string_regex("(/[a-z0-9._-]{0,12}){0,4}").unwrap()
}

fn arb_query() -> impl Strategy<Value = String> {
    proptest::string::string_regex("([a-z_]{1,10}=[a-zA-Z0-9.%-]{0,10}&?){0,6}").unwrap()
}

proptest! {
    /// Classification never panics and always returns a coherent result on
    /// arbitrary URLs.
    #[test]
    fn classification_total(host in arb_host(), path in arb_path(), query in arb_query()) {
        let list = PartnerList::demo();
        let raw = format!("https://{host}{}{}{}",
            if path.is_empty() { "/" } else { &path },
            if query.is_empty() { "" } else { "?" },
            query);
        let url = Url::parse(&raw).unwrap();
        let url_host = url.host.clone();
        let req = Request::get(RequestId(1), url);
        let c = classify_request(&list, &req);
        // The borrowed classification agrees with an independent list
        // lookup: same entry (by index), same name.
        let expected = list.match_host(&url_host);
        prop_assert_eq!(c.partner_name(), expected.map(|e| e.name.as_str()));
        prop_assert_eq!(
            c.partner_index.map(|i| list.entry(i).code.as_str()),
            expected.map(|e| e.code.as_str())
        );
        if c.kind == RequestKind::PartnerOther {
            prop_assert!(c.partner_name().is_some());
        }
    }

    /// Traffic without hb_* params to unknown hosts is never HB-classified.
    #[test]
    fn no_hb_params_no_hb_class(host in arb_host(), path in arb_path()) {
        let list = PartnerList::demo();
        prop_assume!(list.match_host(&host).is_none());
        prop_assume!(!path.ends_with(".js"));
        prop_assume!(!path.contains("prebid") && !path.contains("gpt") && !path.contains("pubfood"));
        let url = Url::parse(&format!("https://{host}{}", if path.is_empty() { "/" } else { &path })).unwrap();
        let req = Request::get(RequestId(1), url);
        let c = classify_request(&list, &req);
        prop_assert_eq!(c.kind, RequestKind::Unrelated);
    }

    /// The hb_ param dictionary is prefix-consistent.
    #[test]
    fn hb_param_prefix(key in "[a-z_]{1,16}") {
        if key.starts_with("hb_") {
            prop_assert!(is_hb_param(&key));
        }
        if is_hb_param(&key) {
            prop_assert!(key.starts_with("hb_") || key == "bidder" || key == "cpm");
        }
    }

    /// Subdomains of listed partner domains always match; unrelated
    /// suffix-similar hosts never do.
    #[test]
    fn partner_list_matching(sub in "[a-z]{1,8}", decoy in "[a-z]{1,8}") {
        let list = PartnerList::new([PartnerEntry {
            name: "X".into(),
            code: "x".into(),
            domains: vec!["x-adnet.example".into()],
            is_ad_server: false,
        }]);
        let sub_host = format!("{sub}.x-adnet.example");
        let decoy_host = format!("{decoy}x-adnet.example");
        prop_assert!(list.match_host(&sub_host).is_some());
        prop_assert!(list.match_host(&decoy_host).is_none());
    }
}

fn arb_token() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9._-]{0,12}").unwrap()
}

proptest! {
    /// Interning then resolving always returns the original string, and
    /// re-interning returns the same symbol (dedup invariant).
    #[test]
    fn intern_resolve_roundtrip(words in proptest::collection::vec(arb_token(), 0..40)) {
        let mut interner = hb_core::Interner::new();
        let symbols: Vec<hb_core::Symbol> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, sym) in words.iter().zip(&symbols) {
            prop_assert_eq!(interner.resolve(*sym), word.as_str());
            prop_assert_eq!(interner.intern(word), *sym);
        }
    }

    /// The interner stores exactly one entry per distinct string: its size
    /// equals the distinct word count plus the pre-interned "".
    #[test]
    fn intern_dedup_invariant(words in proptest::collection::vec(arb_token(), 0..40)) {
        let mut interner = hb_core::Interner::new();
        for w in &words {
            interner.intern(w);
        }
        let distinct: std::collections::BTreeSet<&str> =
            words.iter().map(|w| w.as_str()).collect();
        let expected = distinct.len() + usize::from(!distinct.contains(""));
        prop_assert_eq!(interner.len(), expected);
        // Equal strings map to equal symbols; distinct strings to distinct.
        let mut seen: std::collections::HashMap<&str, hb_core::Symbol> = Default::default();
        for w in &words {
            let sym = interner.intern(w);
            match seen.get(w.as_str()) {
                Some(prev) => prop_assert_eq!(*prev, sym),
                None => {
                    prop_assert!(!seen.values().any(|s| *s == sym));
                    seen.insert(w, sym);
                }
            }
        }
    }

    /// Against a naive first-sight `Vec` model, over enough short words
    /// from a tiny alphabet to force hash-table growth and probe chains.
    #[test]
    fn intern_matches_naive_model(
        words in proptest::collection::vec(proptest::string::string_regex("[a-c.]{0,5}").unwrap(), 0..600)
    ) {
        let mut interner = hb_core::Interner::new();
        let mut model: Vec<String> = vec![String::new()];
        for w in &words {
            let want = match model.iter().position(|s| s == w) {
                Some(i) => i,
                None => {
                    model.push(w.clone());
                    model.len() - 1
                }
            };
            prop_assert_eq!(interner.intern(w).index(), want);
        }
        prop_assert_eq!(interner.len(), model.len());
        for (i, (sym, text)) in interner.iter().enumerate() {
            prop_assert_eq!(sym.index(), i);
            prop_assert_eq!(text, model[i].as_str());
            prop_assert_eq!(interner.resolve(sym), model[i].as_str());
        }
    }

    /// Interning order is stable: symbols are handed out densely in
    /// first-sight order, and iteration replays it.
    #[test]
    fn intern_iteration_replays_first_sight_order(words in proptest::collection::vec(arb_token(), 0..24)) {
        let mut interner = hb_core::Interner::new();
        let mut first_sight: Vec<String> = vec![String::new()];
        for w in &words {
            if !first_sight.iter().any(|s| s == w) {
                first_sight.push(w.clone());
            }
            interner.intern(w);
        }
        let replayed: Vec<String> = interner.iter().map(|(_, s)| s.to_string()).collect();
        prop_assert_eq!(replayed, first_sight);
    }
}
