//! The emulated cache's tag/state/LRU tables — the board's SDRAM arrays.

use std::fmt;

use memories_bus::{Geometry, LineAddr};
use memories_protocol::StateId;

use crate::params::CacheParams;
use crate::replacement::{
    plru_touch, plru_victim, rank_touch, rank_victim, ReplacementPolicy, XorShift,
};

/// A line evicted from the tag store to make room for an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line address (in the store's own line geometry).
    pub line: LineAddr,
    /// The protocol state it held at eviction.
    pub state: StateId,
}

/// Low bits of an entry word holding the state; the tag sits above them.
/// [`StateId::MAX_STATES`] is 8, so three bits hold every state.
const STATE_BITS: u32 = 3;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// The position of one resident entry in a [`TagStore`], as returned by
/// [`TagStore::find`].
///
/// A slot names a way, not a line: it stays valid for the line it was
/// found for until that entry is freed ([`TagStore::invalidate_at`], or
/// [`TagStore::set_state_at`] to state 0) or a later allocation into the
/// same set evicts it. Using a stale slot reads or writes whatever the way
/// holds by then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagSlot {
    /// Index into the entry array.
    entry: usize,
    /// The entry's set and way, as the probe found them.
    set: usize,
    way: u32,
}

/// The tag, state, and replacement-metadata tables of one emulated cache
/// node — the structure the board keeps in four 64 MB SDRAM DIMMs per node
/// controller (§3).
///
/// States are the *programmable* protocol's [`StateId`]s; state 0 means
/// the entry is free. The store never interprets states beyond "state 0 is
/// invalid"; dirtiness is the protocol table's business.
///
/// Each way is one `u64` word, `tag << 3 | state`. Lines are at least
/// 128 B, so a line address from [`Geometry::line_addr`] has at most 57
/// bits and so does its tag; the packing is exact for every such line.
///
/// The primitive is one probe: [`TagStore::find`] returns the line's
/// [`TagSlot`], and the slot methods read and update that entry without
/// searching the set again. The line-keyed methods are thin wrappers that
/// probe once and then use the slot.
///
/// # Examples
///
/// ```
/// use memories::{CacheParams, TagStore};
/// use memories_protocol::StateId;
///
/// # fn main() -> Result<(), memories::ParamError> {
/// let params = CacheParams::builder().capacity(2 << 20).build()?;
/// let mut store = TagStore::new(&params);
/// let line = store.geometry().line_addr(memories_bus::Address::new(0x1000));
/// assert_eq!(store.state(line), StateId::INVALID);
/// store.allocate(line, StateId::new(1));
/// let slot = store.find(line).unwrap();
/// store.set_state_at(slot, StateId::new(2));
/// assert_eq!(store.state(line), StateId::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TagStore {
    geom: Geometry,
    policy: ReplacementPolicy,
    entries: Vec<u64>,
    /// Per set, the replacement history in one word: a recency rank per
    /// way under LRU and FIFO, the MRU bits under PLRU (empty for random).
    history: Vec<u32>,
    rng: XorShift,
    resident: u64,
}

/// The state held in an entry word.
fn entry_state(entry: u64) -> StateId {
    StateId::new((entry & STATE_MASK) as u8)
}

impl TagStore {
    /// Creates an empty tag store for the given parameters.
    pub fn new(params: &CacheParams) -> Self {
        Self::with_geometry(*params.geometry(), params.replacement())
    }

    /// Creates an empty tag store of any geometry (an address stripe's
    /// share of a node's store is smaller than `CacheParams` allows).
    pub(crate) fn with_geometry(geom: Geometry, policy: ReplacementPolicy) -> Self {
        let n = geom.lines() as usize;
        TagStore {
            geom,
            policy,
            entries: vec![0; n],
            history: if policy == ReplacementPolicy::Random {
                Vec::new()
            } else {
                vec![0; geom.sets()]
            },
            rng: XorShift(0x9E37_79B9_7F4A_7C15),
            resident: 0,
        }
    }

    /// The store's line geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of allocated (non-invalid) entries.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// `line`'s set, the first entry index of that set, and the line's
    /// tag shifted into entry position.
    fn set_base_and_key(&self, line: LineAddr) -> (usize, usize, u64) {
        let tag = self.geom.tag(line);
        debug_assert!(
            tag >> (u64::BITS - STATE_BITS) == 0,
            "line {line:?} is wider than this store's geometry allows"
        );
        let set = self.geom.set_index(line);
        (set, set * self.geom.ways() as usize, tag << STATE_BITS)
    }

    /// Finds `line`'s entry: the single tag probe every other access
    /// builds on. `None` if the line is absent.
    #[inline]
    pub fn find(&self, line: LineAddr) -> Option<TagSlot> {
        let (set, base, key) = self.set_base_and_key(line);
        let ways = self.geom.ways() as usize;
        // `entry ^ key` is 1..=7 exactly when the tags match and the
        // state is not 0, so one compare tests both.
        self.entries[base..base + ways]
            .iter()
            .position(|&entry| (entry ^ key).wrapping_sub(1) < STATE_MASK)
            .map(|way| TagSlot {
                entry: base + way,
                set,
                way: way as u32,
            })
    }

    /// The protocol state of the entry at `slot`.
    pub fn state_at(&self, slot: TagSlot) -> StateId {
        entry_state(self.entries[slot.entry])
    }

    /// Sets the state of the entry at `slot`, returning the previous
    /// state. A transition to state 0 frees the entry.
    pub fn set_state_at(&mut self, slot: TagSlot, state: StateId) -> StateId {
        let entry = &mut self.entries[slot.entry];
        let old = entry_state(*entry);
        debug_assert!(!old.is_invalid(), "slot {slot:?} is not resident");
        *entry = (*entry & !STATE_MASK) | u64::from(state.value());
        if state.is_invalid() {
            self.resident -= 1;
        }
        old
    }

    /// Frees the entry at `slot`, returning its old state.
    pub fn invalidate_at(&mut self, slot: TagSlot) -> StateId {
        self.set_state_at(slot, StateId::INVALID)
    }

    /// Records a use of the entry at `slot` for the replacement policy
    /// (LRU recency / PLRU bit; no effect under FIFO or random).
    pub fn touch_at(&mut self, slot: TagSlot) {
        if matches!(
            self.policy,
            ReplacementPolicy::Lru | ReplacementPolicy::PlruBits
        ) {
            self.record_use(slot.set, slot.way);
        }
    }

    /// Allocates an entry for `line`, which must be absent, in `state`,
    /// evicting per the replacement policy if the set is full. Returns the
    /// victim, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `state` is the invalid state or `line`
    /// is already resident.
    pub fn allocate_absent(&mut self, line: LineAddr, state: StateId) -> Option<EvictedLine> {
        debug_assert!(
            !state.is_invalid(),
            "cannot allocate into the invalid state"
        );
        debug_assert!(self.find(line).is_none(), "line {line:?} is resident");
        let (set, base, key) = self.set_base_and_key(line);
        let ways = self.geom.ways() as usize;

        // Prefer a free way.
        let free = self.entries[base..base + ways]
            .iter()
            .position(|&entry| entry & STATE_MASK == 0);
        let (way, victim) = match free {
            Some(way) => {
                self.resident += 1;
                (way, None)
            }
            None => {
                let way = self.victim_way(set);
                let entry = self.entries[base + way];
                let victim = EvictedLine {
                    line: self.geom.line_from_parts(entry >> STATE_BITS, set),
                    state: entry_state(entry),
                };
                (way, Some(victim))
            }
        };

        self.entries[base + way] = key | u64::from(state.value());
        self.record_use(set, way as u32);
        victim
    }

    /// The way a fill into the full set `set` replaces.
    fn victim_way(&mut self, set: usize) -> usize {
        let ways = self.geom.ways();
        let way = match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                rank_victim(self.history[set], ways)
            }
            ReplacementPolicy::Random => (self.rng.next() % u64::from(ways)) as u32,
            ReplacementPolicy::PlruBits => plru_victim(self.history[set] as u8, ways),
        };
        way as usize
    }

    /// Makes `way` the most recent use of `set` in the replacement
    /// history (a fill under every policy but random; a touch under LRU
    /// and PLRU).
    fn record_use(&mut self, set: usize, way: u32) {
        let ways = self.geom.ways();
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.history[set] = rank_touch(self.history[set], way, ways);
            }
            ReplacementPolicy::PlruBits => {
                self.history[set] = u32::from(plru_touch(self.history[set] as u8, way, ways));
            }
            ReplacementPolicy::Random => {}
        }
    }

    /// The protocol state of `line` ([`StateId::INVALID`] if absent).
    #[inline]
    pub fn state(&self, line: LineAddr) -> StateId {
        self.find(line)
            .map_or(StateId::INVALID, |slot| self.state_at(slot))
    }

    /// Whether `line` has an entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Records a use of `line` for the replacement policy (see
    /// [`TagStore::touch_at`]). Returns whether the line was resident.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let Some(slot) = self.find(line) else {
            return false;
        };
        self.touch_at(slot);
        true
    }

    /// Sets the state of a resident line (no-op when absent); returns the
    /// previous state if resident. A transition back to state 0 frees the
    /// entry.
    pub fn set_state(&mut self, line: LineAddr, state: StateId) -> Option<StateId> {
        let slot = self.find(line)?;
        Some(self.set_state_at(slot, state))
    }

    /// Allocates an entry for `line` in `state`, evicting per the
    /// replacement policy if the set is full. Returns the victim, if any.
    ///
    /// If the line is already resident, only its state is updated and
    /// the use recorded.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `state` is the invalid state.
    pub fn allocate(&mut self, line: LineAddr, state: StateId) -> Option<EvictedLine> {
        let Some(slot) = self.find(line) else {
            return self.allocate_absent(line, state);
        };
        debug_assert!(
            !state.is_invalid(),
            "cannot allocate into the invalid state"
        );
        self.set_state_at(slot, state);
        self.touch_at(slot);
        None
    }

    /// Frees the entry of `line`, returning its old state
    /// ([`StateId::INVALID`] if it was absent).
    pub fn invalidate(&mut self, line: LineAddr) -> StateId {
        let slot = self.find(line);
        slot.map_or(StateId::INVALID, |slot| self.invalidate_at(slot))
    }

    /// Iterates over `(line, state)` for every resident entry (tests and
    /// statistics extraction).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, StateId)> + '_ {
        let ways = self.geom.ways() as usize;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| *entry & STATE_MASK != 0)
            .map(move |(i, entry)| {
                let line = self.geom.line_from_parts(entry >> STATE_BITS, i / ways);
                (line, entry_state(*entry))
            })
    }
}

impl fmt::Debug for TagStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagStore")
            .field("geometry", &self.geom.to_string())
            .field("policy", &self.policy)
            .field("resident", &self.resident)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::Address;

    fn store(ways: u32, policy: ReplacementPolicy) -> TagStore {
        // 2 sets x `ways` x 128 B.
        let params = CacheParams::builder()
            .capacity(u64::from(ways) * 2 * 128)
            .ways(ways)
            .line_size(128)
            .replacement(policy)
            .allow_scaled_down()
            .build()
            .unwrap();
        TagStore::new(&params)
    }

    /// Line n of set 0 (with 2 sets, even line numbers hit set 0).
    fn l(store: &TagStore, n: u64) -> LineAddr {
        store.geometry().line_addr(Address::new(n * 2 * 128))
    }

    #[test]
    fn allocate_lookup_invalidate() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        assert!(t.allocate(a, StateId::new(2)).is_none());
        assert_eq!(t.state(a), StateId::new(2));
        assert_eq!(t.resident_lines(), 1);
        assert_eq!(t.invalidate(a), StateId::new(2));
        assert_eq!(t.state(a), StateId::INVALID);
        assert_eq!(t.resident_lines(), 0);
        assert_eq!(t.invalidate(a), StateId::INVALID);
    }

    #[test]
    fn set_state_to_invalid_frees_entry() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        t.allocate(a, StateId::new(1));
        assert_eq!(t.set_state(a, StateId::INVALID), Some(StateId::new(1)));
        assert_eq!(t.resident_lines(), 0);
        assert!(!t.contains(a));
        assert_eq!(t.set_state(a, StateId::new(3)), None);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let (a, b, c) = (l(&t, 0), l(&t, 1), l(&t, 2));
        t.allocate(a, StateId::new(1));
        t.allocate(b, StateId::new(1));
        t.touch(a);
        let v = t.allocate(c, StateId::new(1)).unwrap();
        assert_eq!(v.line, b);
        assert_eq!(v.state, StateId::new(1));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut t = store(2, ReplacementPolicy::Fifo);
        let (a, b, c) = (l(&t, 0), l(&t, 1), l(&t, 2));
        t.allocate(a, StateId::new(1));
        t.allocate(b, StateId::new(1));
        t.touch(a); // should not save `a` under FIFO
        let v = t.allocate(c, StateId::new(1)).unwrap();
        assert_eq!(v.line, a);
    }

    #[test]
    fn plru_avoids_most_recent() {
        let mut t = store(4, ReplacementPolicy::PlruBits);
        let lines: Vec<LineAddr> = (0..4).map(|n| l(&t, n)).collect();
        for line in &lines {
            t.allocate(*line, StateId::new(1));
        }
        // After filling, way 3 was most recently allocated; victim != line 3.
        let v = t.allocate(l(&t, 4), StateId::new(1)).unwrap();
        assert_ne!(v.line, lines[3]);
    }

    #[test]
    fn random_is_deterministic_across_identical_stores() {
        let mut t1 = store(4, ReplacementPolicy::Random);
        let mut t2 = store(4, ReplacementPolicy::Random);
        let mut evictions1 = Vec::new();
        let mut evictions2 = Vec::new();
        for n in 0..32 {
            if let Some(v) = t1.allocate(l(&t1, n), StateId::new(1)) {
                evictions1.push(v.line);
            }
            if let Some(v) = t2.allocate(l(&t2, n), StateId::new(1)) {
                evictions2.push(v.line);
            }
        }
        assert_eq!(evictions1, evictions2);
        assert!(!evictions1.is_empty());
    }

    #[test]
    fn reallocation_updates_state_without_eviction() {
        let mut t = store(2, ReplacementPolicy::Lru);
        let a = l(&t, 0);
        t.allocate(a, StateId::new(1));
        assert!(t.allocate(a, StateId::new(3)).is_none());
        assert_eq!(t.state(a), StateId::new(3));
        assert_eq!(t.resident_lines(), 1);
    }

    #[test]
    fn iter_lists_resident_entries() {
        let mut t = store(2, ReplacementPolicy::Lru);
        t.allocate(l(&t, 0), StateId::new(1));
        t.allocate(l(&t, 1), StateId::new(2));
        let mut got: Vec<_> = t.iter().collect();
        got.sort_by_key(|(line, _)| line.value());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, StateId::new(1));
        assert_eq!(got[1].1, StateId::new(2));
    }

    #[test]
    fn direct_mapped_always_evicts_the_conflicting_way() {
        let mut t = store(1, ReplacementPolicy::Lru);
        let (a, b) = (l(&t, 0), l(&t, 1));
        t.allocate(a, StateId::new(1));
        let v = t.allocate(b, StateId::new(1)).unwrap();
        assert_eq!(v.line, a);
    }
}
