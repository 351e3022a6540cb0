//! Identifier text stored in place.
//!
//! A query's names — variables, flows, symbolic hosts — are a few bytes
//! each (`r1`, `f12`, `client`), written once by the parser or the builder
//! and only ever read afterwards. A [`Name`] keeps up to
//! [`Name::INLINE_CAP`] bytes inside its own 24 bytes, the footprint of the
//! `String` it replaces, so building, cloning and dropping an AST or a
//! [`crate::problem::Problem`] touches the heap for no identifier that
//! fits; a longer one is boxed.
//!
//! A `Name` is its text: it dereferences to `str`, and compares, orders,
//! hashes and prints exactly as that `str` does. The answer cache hashes
//! names into its fingerprint, so `Hash` in particular must feed a hasher
//! what `str` feeds it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An immutable identifier, inline up to [`Name::INLINE_CAP`] bytes.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `buf` are the text — always a whole `str`,
    /// since `From<&str>` is the only writer.
    Inline {
        len: u8,
        buf: [u8; Name::INLINE_CAP],
    },
    /// Text longer than the inline capacity.
    Heap(Box<str>),
}

impl Name {
    /// Longest text, in bytes, stored without a heap allocation.
    pub const INLINE_CAP: usize = 22;

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes were copied from a str")
            }
            Repr::Heap(text) => text,
        }
    }

    /// The text's bytes. Equality, order and hashing go through these
    /// rather than [`Name::as_str`], which re-validates inline text.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        if text.len() <= Name::INLINE_CAP {
            let mut buf = [0u8; Name::INLINE_CAP];
            buf[..text.len()].copy_from_slice(text.as_bytes());
            // `INLINE_CAP` fits a `u8`, so the length does.
            Name(Repr::Inline {
                len: text.len() as u8,
                buf,
            })
        } else {
            Name(Repr::Heap(text.into()))
        }
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        if text.len() <= Name::INLINE_CAP {
            Name::from(text.as_str())
        } else {
            Name(Repr::Heap(text.into_boxed_str()))
        }
    }
}

impl From<&String> for Name {
    fn from(text: &String) -> Self {
        Name::from(text.as_str())
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        match (&self.0, &other.0) {
            // Inline bytes past `len` are zero, so two inline names are
            // equal exactly when their whole buffers are: a few word
            // compares, no call.
            (Repr::Inline { len, buf }, Repr::Inline { len: l, buf: b }) => len == l && buf == b,
            _ => self.as_bytes() == other.as_bytes(),
        }
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    // `str` orders by its bytes.
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    // What `str::hash` writes: the bytes, then a 0xff terminator.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_the_size_of_the_string_it_replaces() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(
            std::mem::size_of::<Option<Name>>(),
            std::mem::size_of::<Name>()
        );
    }

    #[test]
    fn boundary_lengths_round_trip() {
        for len in [0, 1, Name::INLINE_CAP, Name::INLINE_CAP + 1, 200] {
            let text = "x".repeat(len);
            let name = Name::from(text.as_str());
            assert_eq!(name.as_str(), text);
            assert_eq!(Name::from(text.clone()), name);
            assert_eq!(
                matches!(name.0, Repr::Inline { .. }),
                len <= Name::INLINE_CAP
            );
        }
    }
}
