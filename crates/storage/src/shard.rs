//! The shard map: hash-partitioning of row state and the conflict-footprint
//! types threaded through the stack.
//!
//! The engine partitions all row state (version chains and per-shard commit
//! logs) into [`SHARD_COUNT`] shards by a hash of `(table, primary key)`.
//! A committing transaction locks only the shards its read/write sets
//! touch — always in ascending shard-index order, so shard acquisition is
//! deadlock-free — validates against those shards' commit logs, and
//! installs its versions per shard. Transactions with disjoint footprints
//! therefore never serialize on engine-global state (the
//! coordination-avoidance shape of Bailis et al.): only truly conflicting
//! work coordinates.
//!
//! [`ShardSet`] is a 64-bit bitset over shard indices; [`Footprint`] pairs
//! the read- and write-shard sets of one transaction and is exposed all the
//! way up through the ORM and the application layer so callers can reason
//! about (and measure) who actually contends.

/// Number of row-state shards. Fixed at 64 so a [`ShardSet`] is one `u64`.
pub const SHARD_COUNT: usize = 64;

/// The shard holding row `(table, id)`. Deterministic across runs (no
/// random hasher state): replayed schedules always see the same layout.
pub fn shard_of(table: usize, id: i64) -> usize {
    let mut h = (table as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= (id as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= h >> 29;
    (h % SHARD_COUNT as u64) as usize
}

/// A set of shard indices, packed into one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ShardSet(u64);

impl ShardSet {
    /// The empty set.
    pub const fn empty() -> Self {
        ShardSet(0)
    }

    /// Every shard (used when a footprint cannot be localized, e.g. a
    /// predicate range that any insert anywhere could move into).
    pub const fn all() -> Self {
        ShardSet(u64::MAX)
    }

    /// Add a shard index.
    pub fn insert(&mut self, shard: usize) {
        debug_assert!(shard < SHARD_COUNT);
        self.0 |= 1 << shard;
    }

    /// Membership test.
    pub fn contains(self, shard: usize) -> bool {
        self.0 & (1 << shard) != 0
    }

    /// True when no shard is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of shards in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Set union.
    pub fn union(self, other: ShardSet) -> ShardSet {
        ShardSet(self.0 | other.0)
    }

    /// True when the two sets share no shard.
    pub fn is_disjoint(self, other: ShardSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Shard indices in ascending order — the lock-acquisition order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut left = self.0;
        std::iter::from_fn(move || {
            (left != 0).then(|| {
                let shard = left.trailing_zeros() as usize;
                left &= left - 1;
                shard
            })
        })
    }
}

impl FromIterator<usize> for ShardSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut set = ShardSet::empty();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

/// The conflict footprint of a transaction: which shards its reads and
/// writes touch. Two transactions can only conflict when their footprints
/// intersect — `a.writes ∩ (b.reads ∪ b.writes) ≠ ∅` or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Shards of rows/ranges the transaction read (tracked where the
    /// isolation level certifies reads; empty otherwise).
    pub reads: ShardSet,
    /// Shards of rows the transaction has buffered writes for.
    pub writes: ShardSet,
}

impl Footprint {
    /// All shards the footprint touches.
    pub fn touched(&self) -> ShardSet {
        self.reads.union(self.writes)
    }

    /// True when this footprint cannot conflict with `other`: neither
    /// transaction writes a shard the other touches.
    pub fn is_disjoint(&self, other: &Footprint) -> bool {
        self.writes.is_disjoint(other.touched()) && other.writes.is_disjoint(self.touched())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for table in 0..4usize {
            for id in -100i64..100 {
                let s = shard_of(table, id);
                assert!(s < SHARD_COUNT);
                assert_eq!(s, shard_of(table, id));
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_ids() {
        let shards: std::collections::HashSet<usize> =
            (0..64i64).map(|id| shard_of(0, id)).collect();
        // Sequential primary keys must not all land in a few shards.
        assert!(shards.len() > 16, "only {} distinct shards", shards.len());
    }

    #[test]
    fn shard_set_ops() {
        let mut a = ShardSet::empty();
        assert!(a.is_empty());
        a.insert(3);
        a.insert(63);
        assert!(a.contains(3) && a.contains(63) && !a.contains(4));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 63]);
        let b: ShardSet = [4usize, 63].into_iter().collect();
        assert!(!a.is_disjoint(b));
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(ShardSet::all().len(), SHARD_COUNT);
    }

    #[test]
    fn footprint_disjointness() {
        let w = |s: &[usize]| Footprint {
            reads: ShardSet::empty(),
            writes: s.iter().copied().collect(),
        };
        assert!(w(&[1]).is_disjoint(&w(&[2])));
        assert!(!w(&[1]).is_disjoint(&w(&[1, 2])));
        let reader = Footprint {
            reads: [1usize].into_iter().collect(),
            writes: ShardSet::empty(),
        };
        // Reader vs writer on the same shard conflicts; two readers don't.
        assert!(!reader.is_disjoint(&w(&[1])));
        assert!(reader.is_disjoint(&reader));
    }
}
