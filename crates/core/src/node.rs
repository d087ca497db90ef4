//! The node controller: one emulated shared-cache node.
//!
//! §3.1: each of the four SMP node controller FPGAs emulates a shared L2,
//! L3, or remote cache, driving its tag/state/LRU tables in SDRAM under a
//! protocol loaded as a state-transition table. The 512-entry transaction
//! buffer in front of the SDRAM is modelled by the board's front end
//! ([`BoardFrontEnd`](crate::BoardFrontEnd)), which sees every event of
//! every node in stream order.

use std::fmt;

use memories_bus::{Address, Geometry, LineAddr, NodeId, SnoopResponse};
use memories_protocol::{AccessEvent, Action, ActionSet, ProtocolTable, RemoteSummary, StateId};

use crate::counters::{NodeCounter, NodeCounters};
use crate::params::CacheParams;
use crate::replacement::ReplacementPolicy;
use crate::shard::StripeMap;
use crate::stats::NodeStats;
use crate::tagstore::TagStore;

/// What one event did to a node controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeOutcome {
    /// The classified event.
    pub event: AccessEvent,
    /// Whether the line was resident before the transition (for demand
    /// events this is the hit/miss verdict).
    pub hit: bool,
    /// The protocol actions triggered.
    pub actions: ActionSet,
    /// The line's state after the transition.
    pub next: StateId,
}

/// First-touch tracker for cold-miss classification.
///
/// A growable bitmap over line numbers; lines beyond the cap (2^31 lines,
/// i.e. 256 GB of 128 B lines) are treated as already-touched rather than
/// growing without bound.
#[derive(Clone, Debug, Default)]
struct ColdTracker {
    bits: Vec<u64>,
}

impl ColdTracker {
    const MAX_WORDS: usize = 1 << 25; // 2^31 bits = 256 MiB of bitmap at most
    const MAX_LINES: u64 = Self::MAX_WORDS as u64 * 64;

    /// Marks `line` touched; returns `true` if this was its first touch.
    fn first_touch(&mut self, line: LineAddr) -> bool {
        let bit = line.value();
        let word = (bit / 64) as usize;
        if word >= Self::MAX_WORDS {
            return false;
        }
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % 64);
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        fresh
    }
}

/// One address stripe of a node: the tag store and the first-touch
/// record of the lines in the stripe, keyed by stripe-local line number.
#[derive(Clone, Debug)]
struct Stripe {
    tags: TagStore,
    cold: ColdTracker,
}

impl Stripe {
    /// An empty stripe of geometry `geom`.
    fn new(geom: Geometry, policy: ReplacementPolicy) -> Self {
        Stripe {
            tags: TagStore::with_geometry(geom, policy),
            cold: ColdTracker::default(),
        }
    }
}

/// A node's stripe slots, indexed by stripe (`None`: held elsewhere).
/// Slot 0 is kept inline, so a whole node reaches its one store without
/// an extra pointer hop.
#[derive(Clone, Debug)]
struct Stripes {
    first: Option<Stripe>,
    rest: Vec<Option<Stripe>>,
}

impl Stripes {
    /// `count` empty slots.
    fn empty(count: usize) -> Self {
        Stripes {
            first: None,
            rest: (1..count).map(|_| None).collect(),
        }
    }

    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn slot(&self, j: usize) -> &Option<Stripe> {
        if j == 0 {
            &self.first
        } else {
            &self.rest[j - 1]
        }
    }

    fn slot_mut(&mut self, j: usize) -> &mut Option<Stripe> {
        if j == 0 {
            &mut self.first
        } else {
            &mut self.rest[j - 1]
        }
    }

    fn slots(&self) -> impl Iterator<Item = &Option<Stripe>> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    fn into_slots(self) -> impl Iterator<Item = Option<Stripe>> {
        std::iter::once(self.first).chain(self.rest)
    }
}

/// One emulated shared-cache node: tag store, protocol engine and
/// counters.
///
/// The tag store is kept as one or more *address stripes* (DESIGN.md
/// §11). A controller built with [`NodeController::new`] has one stripe,
/// the whole store. [`MemoriesBoard::split`](crate::MemoriesBoard::split)
/// may divide a node into several stripes owned by different shards; such
/// a stripe controller holds only some stripes and reads every line
/// outside them as absent.
///
/// # Examples
///
/// ```
/// use memories::{CacheParams, NodeController};
/// use memories_bus::{Address, NodeId};
/// use memories_protocol::{standard, AccessEvent, RemoteSummary};
///
/// # fn main() -> Result<(), memories::ParamError> {
/// let params = CacheParams::builder().capacity(2 << 20).build()?;
/// let mut node = NodeController::new(NodeId::new(0), params, standard::mesi());
/// let out = node.process(AccessEvent::LocalRead, Address::new(0x1000), 0,
///                        RemoteSummary::None);
/// assert!(!out.hit); // cold miss
/// assert_eq!(node.resident_lines(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct NodeController {
    id: NodeId,
    params: CacheParams,
    protocol: ProtocolTable,
    counters: NodeCounters,
    /// How lines map to stripes; `stripes` has one slot per stripe.
    map: StripeMap,
    stripes: Stripes,
}

impl NodeController {
    /// Creates a node controller holding its whole tag store.
    pub fn new(id: NodeId, params: CacheParams, protocol: ProtocolTable) -> Self {
        NodeController {
            id,
            stripes: Stripes {
                first: Some(Stripe::new(*params.geometry(), params.replacement())),
                rest: Vec::new(),
            },
            params,
            protocol,
            counters: NodeCounters::new(),
            map: StripeMap::WHOLE,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's cache parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// The loaded protocol table.
    pub fn protocol(&self) -> &ProtocolTable {
        &self.protocol
    }

    /// Raw event counters.
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// Derived statistics view.
    pub fn stats(&self) -> NodeStats {
        NodeStats::from_counters(self.counters.clone())
    }

    /// Number of resident (non-invalid) lines in the stripes this
    /// controller holds.
    pub fn resident_lines(&self) -> u64 {
        self.stripes
            .slots()
            .flatten()
            .map(|s| s.tags.resident_lines())
            .sum()
    }

    /// Resets counters (the console's clear-statistics command). Cache
    /// contents are preserved — exactly like the board, where clearing
    /// counters does not flush the SDRAM tables.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// The protocol state the node's directory currently holds for the
    /// line containing `addr` ([`StateId::INVALID`] if the line is absent
    /// or lies in a stripe this controller does not hold).
    pub fn probe(&self, addr: Address) -> StateId {
        let line = self.params.geometry().line_addr(addr);
        self.locate(line)
            .map_or(StateId::INVALID, |(s, local)| s.tags.state(local))
    }

    /// The index of the stripe holding `line`, if this controller holds
    /// it, and the line's number within that stripe. A whole node skips
    /// the stripe arithmetic.
    fn locate_index(&self, line: LineAddr) -> Option<(usize, LineAddr)> {
        let (j, local) = if self.stripes.len() == 1 {
            (0, line)
        } else {
            (self.map.stripe(line), self.map.local(line))
        };
        self.stripes.slot(j).is_some().then_some((j, local))
    }

    /// The held stripe containing `line` and the line's number in it.
    fn locate(&self, line: LineAddr) -> Option<(&Stripe, LineAddr)> {
        let (j, local) = self.locate_index(line)?;
        self.stripes.slot(j).as_ref().map(|s| (s, local))
    }

    /// The remote summary this node would report to a sibling node for
    /// `addr` (used as the "resulting state from other cache nodes" table
    /// input).
    pub fn summarize(&self, addr: Address) -> RemoteSummary {
        self.protocol.summarize_state(self.probe(addr))
    }

    /// Processes one classified event at bus cycle `cycle`, assuming a
    /// null host snoop response (no L2-to-L2 intervention). Equivalent to
    /// [`NodeController::process_with_resp`] with [`SnoopResponse::Null`].
    pub fn process(
        &mut self,
        event: AccessEvent,
        addr: Address,
        cycle: u64,
        remote: RemoteSummary,
    ) -> NodeOutcome {
        self.process_with_resp(event, addr, cycle, remote, SnoopResponse::Null)
    }

    /// Processes one classified event at bus cycle `cycle`.
    ///
    /// `resp` is the transaction's combined host snoop response, used to
    /// classify where an L2 miss was satisfied (Figure 12): an L2-to-L2
    /// intervention wins over the emulated L3, which wins over memory.
    ///
    /// The controller has no timing of its own (ingress-buffer overflow
    /// is decided by the board's front end before an event gets here), so
    /// every event is applied; `cycle` does not affect the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies in a stripe this controller does not hold,
    /// which only a shard's stripe controllers can be asked about.
    pub fn process_with_resp(
        &mut self,
        event: AccessEvent,
        addr: Address,
        _cycle: u64,
        remote: RemoteSummary,
        resp: SnoopResponse,
    ) -> NodeOutcome {
        let global = self.params.geometry().line_addr(addr);
        let (j, line) = self
            .locate_index(global)
            .expect("the line's stripe is held by this controller");
        let stripe = self
            .stripes
            .slot_mut(j)
            .as_mut()
            .expect("locate_index checked it");
        // One tag probe per event: every later read and update of the
        // line's entry goes through this slot.
        let slot = stripe.tags.find(line);
        let state = slot.map_or(StateId::INVALID, |slot| stripe.tags.state_at(slot));
        let hit = slot.is_some();
        let transition = self.protocol.lookup(event, state, remote);
        // The cap applies to the node's own line number, so a stripe
        // counts exactly the cold misses the whole node would.
        let first_touch = global.value() < ColdTracker::MAX_LINES && stripe.cold.first_touch(line);

        // Figure 12 classification: where is this L2 miss satisfied?
        if matches!(event, AccessEvent::LocalRead | AccessEvent::LocalWrite) {
            match resp {
                SnoopResponse::Modified => self.counters.incr(NodeCounter::DemandFilledL2Modified),
                SnoopResponse::Shared => self.counters.incr(NodeCounter::DemandFilledL2Shared),
                _ if hit => self.counters.incr(NodeCounter::DemandFilledL3),
                _ => self.counters.incr(NodeCounter::DemandFilledMemory),
            }
        }

        // Event counting.
        match event {
            AccessEvent::LocalRead => {
                if hit {
                    self.counters.incr(NodeCounter::ReadHits);
                } else {
                    self.counters.incr(NodeCounter::ReadMisses);
                    if first_touch {
                        self.counters.incr(NodeCounter::ReadColdMisses);
                    }
                }
            }
            AccessEvent::LocalWrite => {
                if hit {
                    self.counters.incr(NodeCounter::WriteHits);
                } else {
                    self.counters.incr(NodeCounter::WriteMisses);
                    if first_touch {
                        self.counters.incr(NodeCounter::WriteColdMisses);
                    }
                }
            }
            AccessEvent::LocalUpgrade => {
                if hit {
                    self.counters.incr(NodeCounter::UpgradeHits);
                } else {
                    self.counters.incr(NodeCounter::UpgradeMisses);
                }
            }
            AccessEvent::LocalCastout => {
                self.counters.incr(NodeCounter::CastoutsSeen);
                if !hit {
                    self.counters.incr(NodeCounter::CastoutAllocates);
                }
            }
            AccessEvent::RemoteRead => self.counters.incr(NodeCounter::RemoteReadsSeen),
            AccessEvent::RemoteWrite => {
                self.counters.incr(NodeCounter::RemoteWritesSeen);
                if hit && transition.next.is_invalid() {
                    self.counters.incr(NodeCounter::RemoteInvalidations);
                }
            }
            AccessEvent::IoRead => self.counters.incr(NodeCounter::IoReadsSeen),
            AccessEvent::IoWrite => {
                self.counters.incr(NodeCounter::IoWritesSeen);
                if hit {
                    self.counters.incr(NodeCounter::IoInvalidations);
                }
            }
            AccessEvent::Flush => self.counters.incr(NodeCounter::FlushesSeen),
        }

        // Action counting.
        if transition.actions.contains(Action::InterveneShared) {
            self.counters.incr(NodeCounter::InterventionsShared);
        }
        if transition.actions.contains(Action::InterveneModified) {
            self.counters.incr(NodeCounter::InterventionsModified);
        }
        if transition.actions.contains(Action::Writeback) {
            self.counters.incr(NodeCounter::ProtocolWritebacks);
        }

        // State application.
        match slot {
            Some(slot) if transition.next.is_invalid() => {
                stripe.tags.invalidate_at(slot);
            }
            Some(slot) => {
                stripe.tags.set_state_at(slot, transition.next);
                if event.is_demand() {
                    stripe.tags.touch_at(slot);
                }
            }
            None if !transition.next.is_invalid()
                && transition.actions.contains(Action::Allocate) =>
            {
                if let Some(victim) = stripe.tags.allocate_absent(line, transition.next) {
                    self.counters.incr(NodeCounter::VictimEvictions);
                    if self.protocol.is_dirty_state(victim.state) {
                        self.counters.incr(NodeCounter::VictimWritebacks);
                    }
                }
            }
            // Miss without allocate: the emulated cache stays unchanged.
            None => {}
        }

        NodeOutcome {
            event,
            hit,
            actions: transition.actions,
            next: transition.next,
        }
    }

    /// Whether the line containing `addr` lies in a stripe this
    /// controller holds.
    pub(crate) fn holds(&self, addr: Address) -> bool {
        self.locate_index(self.params.geometry().line_addr(addr))
            .is_some()
    }

    /// Counts an event the front end dropped because this node's
    /// transaction buffer was full. No state changes.
    pub(crate) fn count_drop(&mut self) {
        self.counters.incr(NodeCounter::BufferOverflows);
        self.counters.incr(NodeCounter::EventsDropped);
    }

    /// How this node's lines map to stripes.
    pub(crate) fn stripe_map(&self) -> StripeMap {
        self.map
    }

    /// The stripes this controller holds, ascending.
    pub(crate) fn held_stripes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.stripes.len()).filter(|&j| self.stripes.slot(j).is_some())
    }

    /// Whether this controller holds every stripe of its node.
    pub(crate) fn is_whole(&self) -> bool {
        self.stripes.slots().all(Option::is_some)
    }

    /// The node's line size in address bits.
    pub(crate) fn line_bits(&self) -> u32 {
        self.params.geometry().line_size().trailing_zeros()
    }

    /// How many stripes of `2^granule_bits`-byte granules this node can
    /// be divided into: the stripe bits must lie inside its set-index
    /// bits. A random-replacement node stays whole, because its victim
    /// draws come from one store-wide sequence.
    pub(crate) fn stripe_cap(&self, granule_bits: u32) -> usize {
        if self.params.replacement() == ReplacementPolicy::Random {
            return 1;
        }
        let way_bits = self.line_bits() + self.params.geometry().sets().trailing_zeros();
        1 << way_bits.saturating_sub(granule_bits)
    }

    /// Whether the node holds no line and has recorded no first touch, so
    /// it can be divided into a different number of stripes for free.
    pub(crate) fn is_empty(&self) -> bool {
        self.stripes
            .slots()
            .flatten()
            .all(|s| s.tags.resident_lines() == 0 && s.cold.bits.is_empty())
    }

    /// Breaks a whole node into one controller per stripe of `map`, in
    /// stripe order. The first carries the node's counters and the others
    /// start at zero, so the pieces' counters sum to the node's.
    ///
    /// If `map` is the node's current map the stripes move as they are.
    /// Otherwise the node must be empty: its stores are freed and fresh
    /// ones of `1 / count` the size are allocated, so no populated tag
    /// store is ever copied.
    pub(crate) fn into_stripes(self, map: StripeMap) -> Vec<NodeController> {
        debug_assert!(self.is_whole());
        let stripes: Vec<Option<Stripe>> = if map == self.map {
            self.stripes.into_slots().collect()
        } else {
            assert!(self.is_empty(), "only an empty node changes stripe count");
            // Free the old stores first, so the allocator can reuse them.
            drop(self.stripes);
            let geom = self.params.geometry();
            let share = Geometry::new(
                geom.capacity() / map.count() as u64,
                geom.ways(),
                geom.line_size(),
            )
            .expect("the stripe cap keeps every stripe a whole number of sets");
            (0..map.count())
                .map(|_| Some(Stripe::new(share, self.params.replacement())))
                .collect()
        };
        let count = stripes.len();
        let mut counters = Some(self.counters);
        stripes
            .into_iter()
            .enumerate()
            .map(|(j, stripe)| {
                let mut slots = Stripes::empty(count);
                *slots.slot_mut(j) = stripe;
                NodeController {
                    id: self.id,
                    params: self.params,
                    protocol: self.protocol.clone(),
                    counters: counters.take().unwrap_or_default(),
                    map,
                    stripes: slots,
                }
            })
            .collect()
    }

    /// Folds another piece of the same node into this one: moves its
    /// stripes in and adds its counters with [`NodeCounters::merge`].
    ///
    /// # Errors
    ///
    /// Describes the conflict if the pieces stripe the node differently
    /// or both hold the same stripe.
    pub(crate) fn absorb(&mut self, other: NodeController) -> Result<(), String> {
        if other.map != self.map {
            return Err(format!("{} pieces disagree on the stripe map", self.id));
        }
        for (j, stripe) in other.stripes.into_slots().enumerate() {
            if let Some(stripe) = stripe {
                if self.stripes.slot_mut(j).replace(stripe).is_some() {
                    return Err(format!("stripe {j} of {} appears twice", self.id));
                }
            }
        }
        self.counters.merge(&other.counters);
        Ok(())
    }
}

impl fmt::Debug for NodeController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeController")
            .field("id", &self.id)
            .field("params", &self.params.to_string())
            .field("protocol", &self.protocol.name())
            .field("stripes", &self.map.count())
            .field("resident", &self.resident_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_protocol::standard;

    fn node() -> NodeController {
        let params = CacheParams::builder()
            .capacity(4 * 1024)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        NodeController::new(NodeId::new(0), params, standard::mesi())
    }

    fn addr(line: u64) -> Address {
        Address::new(line * 128)
    }

    #[test]
    fn read_miss_allocates_then_hits() {
        let mut n = node();
        let out = n.process(AccessEvent::LocalRead, addr(1), 0, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.protocol().state_name(out.next), "E");
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 1);
        assert_eq!(n.counters().get(NodeCounter::ReadColdMisses), 1);

        let out = n.process(AccessEvent::LocalRead, addr(1), 100, RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.counters().get(NodeCounter::ReadHits), 1);
    }

    #[test]
    fn cold_vs_capacity_misses_are_distinguished() {
        let mut n = node();
        // 4 KB / 2-way / 128 B = 16 sets; lines k and k+16 conflict.
        n.process(AccessEvent::LocalRead, addr(0), 0, RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(16), 0, RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(32), 0, RemoteSummary::None); // evicts line 0
        let out = n.process(AccessEvent::LocalRead, addr(0), 0, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 4);
        // Only the first three were cold.
        assert_eq!(n.counters().get(NodeCounter::ReadColdMisses), 3);
        assert_eq!(n.counters().get(NodeCounter::VictimEvictions), 2);
    }

    #[test]
    fn write_miss_and_upgrade_paths() {
        let mut n = node();
        let out = n.process(AccessEvent::LocalWrite, addr(5), 0, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::WriteMisses), 1);

        // A shared line upgraded in place.
        n.process(AccessEvent::LocalRead, addr(6), 0, RemoteSummary::Shared); // fills S
        let out = n.process(AccessEvent::LocalUpgrade, addr(6), 0, RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::UpgradeHits), 1);
    }

    #[test]
    fn upgrade_miss_reflects_passivity_limitation() {
        // The host L2 may still hold a line the emulated cache evicted;
        // its DClaim then arrives for an absent line (§3.4).
        let mut n = node();
        let out = n.process(AccessEvent::LocalUpgrade, addr(9), 0, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::UpgradeMisses), 1);
        // MESI allocates it Modified.
        assert_eq!(n.protocol().state_name(out.next), "M");
    }

    #[test]
    fn castout_absorbs_dirty_data() {
        let mut n = node();
        n.process(AccessEvent::LocalRead, addr(3), 0, RemoteSummary::None); // E
        let out = n.process(AccessEvent::LocalCastout, addr(3), 0, RemoteSummary::None);
        assert!(out.hit);
        assert_eq!(n.protocol().state_name(out.next), "M");
        assert_eq!(n.counters().get(NodeCounter::CastoutsSeen), 1);
        assert_eq!(n.counters().get(NodeCounter::CastoutAllocates), 0);

        // Castout of a line the emulated cache no longer tracks.
        let out = n.process(AccessEvent::LocalCastout, addr(7), 0, RemoteSummary::None);
        assert!(!out.hit);
        assert_eq!(n.counters().get(NodeCounter::CastoutAllocates), 1);
    }

    #[test]
    fn remote_write_invalidates_and_counts() {
        let mut n = node();
        n.process(AccessEvent::LocalWrite, addr(2), 0, RemoteSummary::None); // M
        let out = n.process(AccessEvent::RemoteWrite, addr(2), 0, RemoteSummary::None);
        assert!(out.next.is_invalid());
        assert!(out.actions.contains(Action::InterveneModified));
        assert_eq!(n.counters().get(NodeCounter::RemoteInvalidations), 1);
        assert_eq!(n.counters().get(NodeCounter::InterventionsModified), 1);
        assert_eq!(n.probe(addr(2)), StateId::INVALID);
    }

    #[test]
    fn io_write_invalidates() {
        let mut n = node();
        n.process(AccessEvent::LocalRead, addr(4), 0, RemoteSummary::None);
        n.process(AccessEvent::IoWrite, addr(4), 0, RemoteSummary::None);
        assert_eq!(n.counters().get(NodeCounter::IoInvalidations), 1);
        assert_eq!(n.probe(addr(4)), StateId::INVALID);
    }

    #[test]
    fn victim_writeback_counted_for_dirty_victims() {
        let mut n = node();
        // Fill set 0 (lines 0 and 16) with modified data, then force an
        // eviction with line 32.
        n.process(AccessEvent::LocalWrite, addr(0), 0, RemoteSummary::None);
        n.process(AccessEvent::LocalWrite, addr(16), 0, RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(32), 0, RemoteSummary::None);
        assert_eq!(n.counters().get(NodeCounter::VictimEvictions), 1);
        assert_eq!(n.counters().get(NodeCounter::VictimWritebacks), 1);
    }

    #[test]
    fn summarize_reports_remote_view() {
        let mut n = node();
        assert_eq!(n.summarize(addr(1)), RemoteSummary::None);
        n.process(AccessEvent::LocalRead, addr(1), 0, RemoteSummary::None); // E: clean
        assert_eq!(n.summarize(addr(1)), RemoteSummary::Shared);
        n.process(AccessEvent::LocalWrite, addr(1), 0, RemoteSummary::None); // M: dirty
        assert_eq!(n.summarize(addr(1)), RemoteSummary::Modified);
    }

    #[test]
    fn reset_counters_preserves_cache_contents() {
        let mut n = node();
        n.process(AccessEvent::LocalRead, addr(1), 0, RemoteSummary::None);
        n.reset_counters();
        assert_eq!(n.counters().get(NodeCounter::ReadMisses), 0);
        let out = n.process(AccessEvent::LocalRead, addr(1), 0, RemoteSummary::None);
        assert!(out.hit, "cache contents must survive a counter reset");
    }

    #[test]
    fn cold_tracker_first_touch_semantics() {
        let mut t = ColdTracker::default();
        assert!(t.first_touch(LineAddr::new(5)));
        assert!(!t.first_touch(LineAddr::new(5)));
        assert!(t.first_touch(LineAddr::new(1_000_000)));
        // Beyond the cap: conservatively not-cold.
        assert!(!t.first_touch(LineAddr::new(u64::MAX)));
    }
}
