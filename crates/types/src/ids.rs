//! Entity identifiers.
//!
//! Users, servers and OFDMA subchannels are all indexed densely from zero,
//! but carrying them as distinct newtypes prevents a user index from being
//! used to index a server table and vice versa. Each id is 32 bits wide,
//! so a decision or a member list holds half what a `usize` would;
//! `Scenario::new` rejects geometries whose ids would not fit.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a dense zero-based index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in 32 bits.
            #[inline]
            pub const fn new(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "id index beyond 32 bits");
                Self(index as u32)
            }

            /// The dense zero-based index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Iterates over the first `count` identifiers: `0..count`.
            pub fn all(count: usize) -> impl Iterator<Item = Self> + Clone {
                (0..count).map(Self::new)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self::new(index)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id!(
    /// Identifies a mobile user `u ∈ U`.
    UserId,
    "u"
);

id!(
    /// Identifies a base station / MEC server `s ∈ S` (used
    /// interchangeably, as in the paper).
    ServerId,
    "s"
);

id!(
    /// Identifies an OFDMA uplink subchannel `j ∈ N`.
    SubchannelId,
    "j"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn index_roundtrip() {
        let u = UserId::new(7);
        assert_eq!(u.index(), 7);
        assert_eq!(usize::from(u), 7);
        assert_eq!(UserId::from(7usize), u);
    }

    #[test]
    fn all_enumerates_dense_range() {
        let ids: Vec<ServerId> = ServerId::all(3).collect();
        assert_eq!(
            ids,
            vec![ServerId::new(0), ServerId::new(1), ServerId::new(2)]
        );
        assert_eq!(SubchannelId::all(0).count(), 0);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(UserId::new(3).to_string(), "u3");
        assert_eq!(ServerId::new(1).to_string(), "s1");
        assert_eq!(SubchannelId::new(0).to_string(), "j0");
    }

    #[test]
    fn usable_as_hash_keys() {
        let set: HashSet<UserId> = UserId::all(10).collect();
        assert_eq!(set.len(), 10);
        assert!(set.contains(&UserId::new(9)));
    }

    #[test]
    fn ids_are_four_bytes() {
        assert_eq!(std::mem::size_of::<UserId>(), 4);
        assert_eq!(std::mem::size_of::<ServerId>(), 4);
        assert_eq!(std::mem::size_of::<SubchannelId>(), 4);
        assert_eq!(std::mem::size_of::<Option<UserId>>(), 8);
    }

    #[test]
    fn largest_index_round_trips() {
        let top = u32::MAX as usize;
        assert_eq!(UserId::new(top).index(), top);
        assert_eq!(UserId::new(top).to_string(), format!("u{top}"));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "beyond 32 bits")]
    fn index_beyond_32_bits_panics() {
        let _ = UserId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_matches_index() {
        assert!(UserId::new(1) < UserId::new(2));
        let mut v = vec![ServerId::new(2), ServerId::new(0), ServerId::new(1)];
        v.sort();
        assert_eq!(
            v,
            vec![ServerId::new(0), ServerId::new(1), ServerId::new(2)]
        );
    }
}
