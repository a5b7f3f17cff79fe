//! [`Name`]: the immutable short string the request path copies.
//!
//! A URL scheme, a host name, a path, a logical file name or a job name is
//! written once — by the planner, or by the decoder of a request — and then
//! copied at every hop: plan → executor spec → wire → policy fact → advice →
//! wire → executor. As a `String` each copy is an allocation. A `Name` is
//! the same 24 bytes and copies for free: text of up to [`Name::INLINE`]
//! bytes lives in the value itself, longer text behind one shared,
//! reference-counted allocation.
//!
//! In every observable respect a `Name` is the `String` it replaces:
//! equality, order, `Hash` (so `HashMap<Name, _>::get(&str)` works and the
//! keyed digests of `keys.rs` are unchanged), `Debug`, `Display` and the
//! serialized form.
//!
//! There is deliberately no interner behind it. Host names and paths arrive
//! in request bodies, so a table keyed by them would be a table a client
//! controls: it could be grown without bound, and nothing says when an
//! entry may be dropped. Sharing here is by reference count only — text
//! lives exactly as long as some value holds it.

use serde::{Deserialize, Reader, Serialize, Writer};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable string that is cheap to clone (see the module docs).
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is UTF-8: [`Name::new`], the only place an `Inline` is
    /// built, copies it from a `&str`, and nothing mutates it afterwards.
    Inline {
        len: u8,
        buf: [u8; Name::INLINE],
    },
    Shared(Arc<str>),
}

impl Name {
    /// Longest text, in bytes, held without an allocation.
    pub const INLINE: usize = 22;

    /// A name holding `text`: inline when it fits, else one shared
    /// allocation that every clone points at.
    pub fn new(text: &str) -> Name {
        if text.len() <= Self::INLINE {
            let mut buf = [0; Self::INLINE];
            buf[..text.len()].copy_from_slice(text.as_bytes());
            Name(Repr::Inline {
                len: text.len() as u8,
                buf,
            })
        } else {
            Name(Repr::Shared(Arc::from(text)))
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // SAFETY: an `Inline` is only ever built by `Name::new`, which
            // fills `buf[..len]` with the bytes of a `&str` (`len` ≤ 22, so
            // the whole string, never a split character), and no method
            // hands out `buf` mutably.
            Repr::Inline { len, buf } => unsafe {
                std::str::from_utf8_unchecked(&buf[..usize::from(*len)])
            },
            Repr::Shared(text) => text,
        }
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::new("")
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::new(&text)
    }
}

impl From<&String> for Name {
    fn from(text: &String) -> Name {
        Name::new(text)
    }
}

impl From<Cow<'_, str>> for Name {
    fn from(text: Cow<'_, str>) -> Name {
        Name::new(&text)
    }
}

/// `format_args!(..).into()`: the text is rendered on the stack when it is
/// short enough — which job names, file names and paths are — so building a
/// name costs what holding it costs, not a `String` on the way.
impl From<fmt::Arguments<'_>> for Name {
    fn from(args: fmt::Arguments<'_>) -> Name {
        /// Whole `&str`s in `buf[..len]` until one does not fit; from then
        /// on everything is in `spill`.
        struct Rendered {
            buf: [u8; 128],
            len: usize,
            spill: String,
        }
        impl Rendered {
            fn on_stack(&self) -> &str {
                std::str::from_utf8(&self.buf[..self.len]).expect("only whole strs are written")
            }
        }
        impl fmt::Write for Rendered {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                let end = self.len + s.len();
                if self.spill.is_empty() && end <= self.buf.len() {
                    self.buf[self.len..end].copy_from_slice(s.as_bytes());
                    self.len = end;
                } else {
                    if self.spill.is_empty() {
                        self.spill = self.on_stack().to_owned();
                    }
                    self.spill.push_str(s);
                }
                Ok(())
            }
        }
        if let Some(text) = args.as_str() {
            return Name::new(text);
        }
        let mut out = Rendered {
            buf: [0; 128],
            len: 0,
            spill: String::new(),
        };
        fmt::Write::write_fmt(&mut out, args).expect("a Display impl returned an error");
        if out.spill.is_empty() {
            Name::new(out.on_stack())
        } else {
            Name::new(&out.spill)
        }
    }
}

impl From<&Name> for Name {
    fn from(name: &Name) -> Name {
        name.clone()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// `str`'s hash, as `Borrow<str>` requires.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

macro_rules! eq_with_text {
    ($($text:ty),*) => {$(
        impl PartialEq<$text> for Name {
            fn eq(&self, other: &$text) -> bool {
                self.as_str() == &other[..]
            }
        }
        impl PartialEq<Name> for $text {
            fn eq(&self, other: &Name) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}
eq_with_text!(str, &str, String);

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl Serialize for Name {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Deserialize for Name {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        r.string().map(Name::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::UrlKey;
    use crate::model::Url;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn a_name_and_a_url_are_the_size_of_the_strings_they_replace() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(std::mem::size_of::<Option<Name>>(), 24);
        assert_eq!(std::mem::size_of::<Url>(), 72);
    }

    #[test]
    fn text_is_inline_up_to_22_bytes_and_shared_above() {
        for len in [0, 1, 21, 22] {
            let name = Name::new(&"x".repeat(len));
            assert!(matches!(name.0, Repr::Inline { .. }), "{len} bytes");
        }
        for len in [23, 24, 4096] {
            let name = Name::new(&"x".repeat(len));
            let Repr::Shared(text) = &name.0 else {
                panic!("{len} bytes must be shared");
            };
            let copy = name.clone();
            let Repr::Shared(copied) = &copy.0 else {
                panic!("a clone keeps the representation");
            };
            assert!(Arc::ptr_eq(text, copied), "a clone shares the text");
        }
    }

    #[test]
    fn formatted_names_equal_the_formatted_string() {
        for n in [0usize, 5, 22, 23, 127, 128, 129, 400] {
            let (head, tail) = ("é".repeat(n / 2), "x".repeat(n % 2));
            let name = Name::from(format_args!("{head}{tail}-{n:03}"));
            assert_eq!(name, format!("{head}{tail}-{n:03}"));
        }
        assert_eq!(Name::from(format_args!("literal")), "literal");
    }

    fn std_hash(value: impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// `Url` as it was before `Name`: same field order, same derives. The
    /// keyed digest of a `Url` must be what this one's would be.
    #[derive(Hash)]
    struct StringUrl {
        scheme: String,
        host: String,
        path: String,
    }

    /// Everything observable about `Name::from(text)` equals `text`'s.
    fn same_as_string(a: &str, b: &str) {
        let (na, nb) = (Name::from(a), Name::from(b));
        assert_eq!(na.as_str(), a);
        assert_eq!(na.len(), a.len());
        assert_eq!(na == nb, a == b);
        assert_eq!(na.cmp(&nb), a.cmp(b));
        assert_eq!(na.partial_cmp(&nb), a.partial_cmp(b));
        // Each comparison with text, in both directions.
        let owned = b.to_string();
        assert_eq!(PartialEq::<str>::eq(&na, b), a == b);
        assert_eq!(PartialEq::<&str>::eq(&na, &b), a == b);
        assert_eq!(PartialEq::<String>::eq(&na, &owned), a == b);
        assert_eq!(PartialEq::<Name>::eq(b, &na), a == b);
        assert_eq!(PartialEq::<Name>::eq(&b, &na), a == b);
        assert_eq!(PartialEq::<Name>::eq(&owned, &na), a == b);
        assert_eq!(&na.clone(), &na);
        assert_eq!(std_hash(&na), std_hash(a));
        assert_eq!(std_hash(&na), std_hash(a.to_string()));
        assert_eq!(format!("{na:?}"), format!("{a:?}"));
        assert_eq!(format!("{na}"), a);
        assert_eq!(format!("{na:>30}|{na:<4}"), format!("{a:>30}|{a:<4}"));

        // The keyed digest the alpha indexes bucket URLs by.
        let url = Url {
            scheme: na.clone(),
            host: nb.clone(),
            path: na.clone(),
        };
        let before = StringUrl {
            scheme: a.to_string(),
            host: b.to_string(),
            path: a.to_string(),
        };
        assert_eq!(UrlKey::of(&url), UrlKey::digest_of(&before));

        // JSON, both directions, against `String`'s encoding.
        let json = serde_json::to_string(&na).unwrap();
        assert_eq!(&json, &serde_json::to_string(a).unwrap());
        assert_eq!(&serde_json::from_str::<Name>(&json).unwrap(), &na);
        assert_eq!(serde_json::from_str::<String>(&json).unwrap(), a);

        // Maps keyed by a name answer to the text.
        let hashed: HashMap<Name, u8> = [(na.clone(), 1)].into_iter().collect();
        assert_eq!(hashed.get(a), Some(&1));
        assert_eq!(hashed.contains_key(b), a == b);
        let ordered: BTreeMap<Name, u8> = [(na, 1), (nb, 2)].into_iter().collect();
        assert_eq!(ordered.get(b), Some(&2));
        assert_eq!(ordered.len(), if a == b { 1 } else { 2 });
    }

    #[test]
    fn the_lengths_around_the_inline_limit_behave_as_strings() {
        // 0, 21, 22, 23 and 24 bytes, ASCII and with a two-, three- and
        // four-byte character ending at, straddling and starting at byte 22.
        let mut texts: Vec<String> = [0, 21, 22, 23, 24]
            .iter()
            .map(|&len| "abcdefghijklmnopqrstuvwxyz"[..len].to_string())
            .collect();
        for wide in ["é", "中", "🦀"] {
            for before in 18..=23 {
                texts.push(format!("{}{wide}", "x".repeat(before)));
                texts.push(format!("{}{wide}tail", "x".repeat(before)));
            }
        }
        for a in &texts {
            for b in &texts {
                same_as_string(a, b);
            }
        }
    }

    proptest! {
        #[test]
        fn a_name_is_indistinguishable_from_its_string(
            a in "\\PC{0,40}",
            b in "\\PC{0,40}",
        ) {
            same_as_string(&a, &b);
            // A shared prefix exercises ordering past the first byte.
            same_as_string(&a, &format!("{a}{b}"));
        }

        /// A URL crosses XML as its display form; names of any length and
        /// script come back equal.
        #[test]
        fn urls_round_trip_through_display_and_parse(
            host in "[a-z0-9.é中-]{1,30}",
            path in "/[a-zA-Z0-9._/é中🦀-]{0,40}",
        ) {
            let url = Url::new("gsiftp", host.as_str(), path.as_str());
            prop_assert_eq!(&url.host, &host);
            prop_assert_eq!(&url.path, &path);
            prop_assert_eq!(Url::parse(&url.to_string()).unwrap(), url);
        }
    }
}
