//! A [`Name`] is the `str` it holds: it compares, orders, prints and —
//! what the answer cache's fingerprint depends on — *hashes* exactly as
//! that `str`, under the standard hasher and under [`WordHasher`], on both
//! sides of the inline capacity and for text that is not ASCII.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use cloudtalk_lang::{BuildWordHasher, Name};
use proptest::prelude::*;

/// Strings whose byte length sits on, just under and just over the inline
/// capacity (multi-byte characters make the byte length overshoot the
/// character count), plus the empty and a long one.
fn arb_text() -> impl Strategy<Value = String> {
    let chars =
        || proptest::sample::select(vec!['a', 'Z', '_', '7', ' ', '\0', 'é', 'ß', '→', '𝄞']);
    let lens = proptest::sample::select(vec![0usize, 1, 7, 8, 11, 21, 22, 23, 200]);
    lens.prop_flat_map(move |n| proptest::collection::vec(chars(), n))
        .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_name_is_its_text(a in arb_text(), b in arb_text()) {
        let (na, nb) = (Name::from(a.as_str()), Name::from(b.as_str()));
        prop_assert_eq!(na.as_str(), a.as_str());
        prop_assert_eq!(&*na, a.as_str());
        prop_assert_eq!(Name::from(a.clone()), na.clone());
        prop_assert_eq!(Name::from(&a), na.clone());
        prop_assert!(na == a.as_str());

        prop_assert_eq!(na == nb, a == b);
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        prop_assert_eq!(na.partial_cmp(&nb), a.partial_cmp(&b));
        prop_assert_eq!(na.to_string(), a.clone());
        prop_assert_eq!(format!("{na:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{na:>8}"), format!("{a:>8}"));

        let sip = BuildHasherDefault::<DefaultHasher>::default();
        let word = BuildWordHasher::default();
        prop_assert_eq!(sip.hash_one(&na), sip.hash_one(a.as_str()));
        prop_assert_eq!(word.hash_one(&na), word.hash_one(a.as_str()));
        // As a field of something hashed, too: what `canon` does.
        prop_assert_eq!(word.hash_one((&na, 7u32)), word.hash_one((a.as_str(), 7u32)));
        prop_assert_eq!(word.hash_one(Some(&na)), word.hash_one(Some(a.as_str())));
    }
}
