//! Consistent-hash ring with virtual nodes.
//!
//! Canonical result-cache keys are hashed onto a 64-bit ring; each
//! member owns the arc preceding its virtual nodes. Two properties make
//! this the right router primitive:
//!
//! * **Balance** — with [`DEFAULT_VNODES`] virtual nodes per member the
//!   load spread across members concentrates near uniform (relative
//!   deviation shrinks like `1/sqrt(vnodes)`), so no node becomes the
//!   fleet's hot spot by construction.
//! * **Minimal movement** — adding a member steals keys only *for* the
//!   new member, and removing one reassigns only the keys it owned.
//!   Every other key keeps its owner, so membership churn invalidates
//!   the smallest possible slice of the fleet's warm caches.
//!
//! Lookups take the member set's *liveness* as a predicate:
//! `owner(key, alive)` walks clockwise past ejected members, which is
//! exactly the router's failover order, and means ejection needs no
//! ring rebuild (re-admission restores the original ownership for
//! free).

use gem5prof_chaos::{fnv1a64, splitmix64};

/// Virtual nodes per member: enough that the max/mean member load on
/// realistic key counts stays within ~±25% (see the property tests in
/// `tests/cluster_ring.rs`), cheap enough that rebuilds are trivial.
pub const DEFAULT_VNODES: usize = 160;

/// FNV-1a over bytes, finished through splitmix64. FNV alone clusters
/// on short ASCII inputs (member names, `figure:figNN` keys); the
/// splitmix finisher spreads those clusters over the full 64-bit ring.
fn hash(bytes: &[u8]) -> u64 {
    splitmix64(fnv1a64(bytes))
}

/// A consistent-hash ring over member indices `0..n`.
///
/// Members are identified to the ring by stable *names* (addresses);
/// the ring stores the caller's index for each name so lookups return
/// an index into the caller's member table.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, member index)`, sorted by position.
    points: Vec<(u64, usize)>,
    /// Member count this ring was built over.
    members: usize,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual nodes per member. Virtual
    /// node positions depend only on the member's *name*, so the same
    /// member lands on the same arcs in every ring that contains it —
    /// the root of the minimal-movement property.
    pub fn new<S: AsRef<str>>(member_names: &[S], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(member_names.len() * vnodes);
        for (idx, name) in member_names.iter().enumerate() {
            let name = name.as_ref().as_bytes();
            for v in 0..vnodes {
                let mut tagged = Vec::with_capacity(name.len() + 9);
                tagged.extend_from_slice(name);
                tagged.push(b'#');
                tagged.extend_from_slice(&(v as u64).to_le_bytes());
                points.push((hash(&tagged), idx));
            }
        }
        // Position ties across members are broken by member index so
        // iteration order (and thus ownership) is deterministic.
        points.sort_unstable();
        HashRing {
            points,
            members: member_names.len(),
        }
    }

    /// Number of members the ring was built over.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The ring position of a key.
    pub fn key_position(key: &str) -> u64 {
        hash(key.as_bytes())
    }

    /// The owner of `key` among members for which `alive` holds: the
    /// first live virtual node at or clockwise after the key's
    /// position. Returns `None` when no member is alive (or the ring is
    /// empty).
    pub fn owner(&self, key: &str, alive: impl Fn(usize) -> bool) -> Option<usize> {
        self.successors(key).find(|&idx| alive(idx))
    }

    /// All members in failover order for `key`: the owner first, then
    /// each *distinct* member by clockwise walk. This is the order the
    /// router tries members in when the owner is down, and the order a
    /// node probes peers in when hunting a migrated key's old owner.
    pub fn successors(&self, key: &str) -> impl Iterator<Item = usize> + '_ {
        let pos = Self::key_position(key);
        let start = self.points.partition_point(|&(p, _)| p < pos);
        let n = self.points.len();
        let mut seen = vec![false; self.members];
        (0..n).filter_map(move |i| {
            let (_, idx) = self.points[(start + i) % n];
            if seen[idx] {
                None
            } else {
                seen[idx] = true;
                Some(idx)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect()
    }

    #[test]
    fn owner_is_deterministic_and_total() {
        let ring = HashRing::new(&names(4), 64);
        for k in 0..200 {
            let key = format!("exp:key{k}");
            let a = ring.owner(&key, |_| true).unwrap();
            let b = ring.owner(&key, |_| true).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn failover_skips_dead_members_and_preserves_others() {
        let ring = HashRing::new(&names(4), 64);
        for k in 0..200 {
            let key = format!("table:table{k}");
            let owner = ring.owner(&key, |_| true).unwrap();
            let failover = ring.owner(&key, |m| m != owner).unwrap();
            assert_ne!(failover, owner);
            // Keys not owned by the dead member keep their owner.
            let dead = (owner + 1) % 4;
            assert_eq!(ring.owner(&key, |m| m != dead), Some(owner));
        }
    }

    #[test]
    fn successors_enumerate_every_member_once() {
        let ring = HashRing::new(&names(5), 32);
        let order: Vec<usize> = ring.successors("some:key").collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "each member exactly once");
        assert_eq!(order[0], ring.owner("some:key", |_| true).unwrap());
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new::<&str>(&[], 64);
        assert_eq!(ring.owner("k", |_| true), None);
        assert_eq!(ring.successors("k").count(), 0);
    }
}
