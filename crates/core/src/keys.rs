//! Index keys of policy memory, and which hasher each may use.
//!
//! Three kinds of key reach the alpha indexes (`pwm_rules::IndexKey` picks
//! the postings map's hasher from the key type):
//!
//! * **Minted ids** — [`TransferId`], [`CleanupId`], [`GroupId`]: assigned
//!   by this service from a counter. A request can *name* one (an outcome
//!   report does) but only minted values are ever stored, so the map hashes
//!   them in one multiply.
//! * **Digests** — [`UrlKey`], [`PairKey`]: a request chooses the URL or the
//!   host names, so what is indexed is their SipHash under a key drawn once
//!   per process. Colliding inputs cannot be computed offline, which is what
//!   lets the *digest* be hashed in one multiply too. A digest is computed
//!   once per fact, at insertion; matchers read it back with
//!   `WorkingMemory::key_of`. A bucket hit is always re-verified against the
//!   strings: a collision costs a compare, never a wrong match.
//! * **Outside values** — backend and host names, `(host, file)` and
//!   `(group, cluster)` pairs: stored as they arrive ([`Name`]s are cloned
//!   from the fact, which allocates nothing), hashed with std's keyed
//!   SipHash (the `IndexKey` impls of `pwm-rules`, and [`Name`]'s here).
//!
//! Nothing observable depends on a digest's value: postings are
//! handle-ordered and no index map is ever iterated, so two processes with
//! different keys give byte-identical advice, traces and snapshots. That is
//! also what lets a digest force its low bit to one: it is never zero, so
//! the index's per-slot `Option` of a digest key is 8 bytes, not 16.

use crate::model::{CleanupId, GroupId, TransferId, Url};
use crate::name::Name;
use pwm_rules::{IndexKey, MintedBuild};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::num::NonZeroU64;
use std::sync::OnceLock;

macro_rules! minted_keys {
    ($($ty:ty),*) => {$(
        impl IndexKey for $ty {
            type Build = MintedBuild;
        }
    )*};
}
minted_keys!(TransferId, CleanupId, GroupId, UrlKey, PairKey);

/// A request or a config file chooses the text: keyed SipHash, as `String`.
impl IndexKey for Name {
    type Build = RandomState;
}

/// SipHash of `value` under this process's digest key, low bit forced.
fn digest(value: impl Hash) -> NonZeroU64 {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    #[cfg(test)]
    if collide::forced() {
        return NonZeroU64::MIN;
    }
    NonZeroU64::MIN | KEY.get_or_init(RandomState::new).hash_one(value)
}

/// Keyed digest of a [`Url`]: how staged-file resources (by `dest`),
/// transfers (by `spec.dest`), cleanups (by `spec.file`) and staged-on
/// records (by `file`) are bucketed, so one stored key serves every probe
/// that joins them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct UrlKey(NonZeroU64);

impl UrlKey {
    pub(crate) fn of(url: &Url) -> UrlKey {
        UrlKey(digest(url))
    }

    /// The key of anything that hashes as a [`Url`] does.
    #[cfg(test)]
    pub(crate) fn digest_of(url_like: impl Hash) -> UrlKey {
        UrlKey(digest(url_like))
    }
}

/// Keyed digest of a (source host, destination host) pair: how allocation
/// ledgers are bucketed, so a probe borrows the two names instead of
/// building an owned `(String, String)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PairKey(NonZeroU64);

impl PairKey {
    pub(crate) fn of(src_host: &str, dst_host: &str) -> PairKey {
        PairKey(digest((src_host, dst_host)))
    }
}

/// Test-only switch forcing every digest on this thread to one value, so a
/// test can show that advice never depends on digests being distinct.
#[cfg(test)]
pub(crate) mod collide {
    use std::cell::Cell;

    thread_local! {
        static FORCED: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn forced() -> bool {
        FORCED.with(Cell::get)
    }

    /// Run `f` with every digest computed on this thread equal.
    pub(crate) fn with_constant_digest<R>(f: impl FnOnce() -> R) -> R {
        FORCED.with(|c| c.set(true));
        let out = f();
        FORCED.with(|c| c.set(false));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stored_digest_key_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<UrlKey>>(), 8);
        assert_eq!(std::mem::size_of::<Option<PairKey>>(), 8);
    }
}
