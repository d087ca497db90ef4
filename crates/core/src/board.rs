//! The assembled MemorIES board.

use std::fmt;

use memories_bus::{
    BusListener, BusOp, ListenerReaction, NodeId, ProcId, Transaction, TransactionBlock,
};
use memories_protocol::{standard, ProtocolTable};

use crate::counters::Counter40;
use crate::error::BoardError;
use crate::filter::{AddressFilter, FilterConfig, NodePartition};
use crate::node::NodeController;
use crate::params::CacheParams;
use crate::shard::{plan_shards, NodeShard};
use crate::stats::NodeStats;
use crate::timing::{TimingConfig, TransactionBuffer};

/// Configuration of one emulated shared-cache node (one node-controller
/// FPGA plus its SDRAM and protocol table).
#[derive(Clone, Debug)]
pub struct NodeSlot {
    /// Cache parameters (Table 2).
    pub params: CacheParams,
    /// The coherence protocol loaded into this controller. Different
    /// slots may carry different protocols (§3.2).
    pub protocol: ProtocolTable,
    /// Coherence domain: slots sharing a domain form one emulated target
    /// machine; distinct domains are independent parallel experiments
    /// (Figure 4).
    pub domain: u8,
    /// The host CPUs whose traffic is local to this node.
    pub cpus: Vec<ProcId>,
    /// Extra CPUs whose traffic is *remote* to this node's domain even
    /// though no configured slot owns them — used when the emulated
    /// target machine has more nodes than the board's four controllers.
    pub remote_cpus: Vec<ProcId>,
}

impl NodeSlot {
    /// Creates a slot with the MESI protocol in domain 0.
    pub fn new<I: IntoIterator<Item = ProcId>>(params: CacheParams, cpus: I) -> Self {
        NodeSlot {
            params,
            protocol: standard::mesi(),
            domain: 0,
            cpus: cpus.into_iter().collect(),
            remote_cpus: Vec::new(),
        }
    }

    /// Marks extra CPUs as remote members of this slot's domain.
    #[must_use]
    pub fn with_remote_cpus<I: IntoIterator<Item = ProcId>>(mut self, cpus: I) -> Self {
        self.remote_cpus = cpus.into_iter().collect();
        self
    }

    /// Replaces the protocol table.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolTable) -> Self {
        self.protocol = protocol;
        self
    }

    /// Places the slot in a coherence domain.
    #[must_use]
    pub fn in_domain(mut self, domain: u8) -> Self {
        self.domain = domain;
        self
    }
}

/// Full board configuration: up to four node slots plus filter and timing
/// settings.
#[derive(Clone, Debug)]
pub struct BoardConfig {
    /// The node slots, in node-id order.
    pub slots: Vec<NodeSlot>,
    /// Address filter settings.
    pub filter: FilterConfig,
    /// SDRAM/buffer timing settings.
    pub timing: TimingConfig,
    /// Whether a full node buffer posts a bus retry (the board's real
    /// behaviour) or silently drops the event.
    pub allow_retry: bool,
}

impl BoardConfig {
    /// A single emulated node covering `cpus` (Figure 3's single-node L3
    /// emulation), with MESI.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if the slot is invalid.
    pub fn single_node<I: IntoIterator<Item = ProcId>>(
        params: CacheParams,
        cpus: I,
    ) -> Result<Self, BoardError> {
        BoardConfig::from_slots(vec![NodeSlot::new(params, cpus)])
    }

    /// Multiple nodes of one target machine: `partitions[i]` lists the
    /// CPUs local to node `i`; all nodes share `params`, MESI, domain 0.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if the partitioning is invalid.
    pub fn multi_node(
        params: CacheParams,
        partitions: Vec<Vec<ProcId>>,
    ) -> Result<Self, BoardError> {
        BoardConfig::from_slots(
            partitions
                .into_iter()
                .map(|cpus| NodeSlot::new(params, cpus))
                .collect(),
        )
    }

    /// Parallel evaluation of several cache configurations over the *same*
    /// CPUs (Figure 4): each configuration gets its own coherence domain.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if there are more configurations than node
    /// controllers.
    pub fn parallel_configs(
        configs: Vec<CacheParams>,
        cpus: Vec<ProcId>,
    ) -> Result<Self, BoardError> {
        BoardConfig::from_slots(
            configs
                .into_iter()
                .enumerate()
                .map(|(i, params)| NodeSlot::new(params, cpus.clone()).in_domain(i as u8))
                .collect(),
        )
    }

    /// Builds a configuration from explicit slots.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::TooManyNodes`] / [`BoardError::NoNodes`] for
    /// a bad slot count (per-slot validation happens at board build).
    pub fn from_slots(slots: Vec<NodeSlot>) -> Result<Self, BoardError> {
        if slots.is_empty() {
            return Err(BoardError::NoNodes);
        }
        if slots.len() > NodeId::MAX_NODES {
            return Err(BoardError::TooManyNodes {
                requested: slots.len(),
            });
        }
        Ok(BoardConfig {
            slots,
            filter: FilterConfig::default(),
            timing: TimingConfig::default(),
            allow_retry: true,
        })
    }
}

/// The global events counter FPGA: bus-level counters and run span.
#[derive(Clone, Debug, Default)]
pub struct GlobalCounters {
    transactions: Counter40,
    by_op: [Counter40; BusOp::ALL.len()],
    first_cycle: Option<u64>,
    last_cycle: u64,
}

impl GlobalCounters {
    /// Records one raw bus transaction.
    pub fn observe(&mut self, txn: &Transaction) {
        self.transactions.incr();
        self.by_op[txn.op.index()].incr();
        self.first_cycle = Some(match self.first_cycle {
            Some(c) => c.min(txn.cycle),
            None => txn.cycle,
        });
        self.last_cycle = self.last_cycle.max(txn.cycle);
    }

    /// Folds another bank into this one.
    ///
    /// Every field is a commutative monoid (counts sum with saturation,
    /// the run span takes min/max), so observing a transaction stream in
    /// arbitrary disjoint pieces and merging gives bit-identical counters
    /// to observing it serially — the property the parallel engine's
    /// barrier merge relies on.
    pub fn merge(&mut self, other: &GlobalCounters) {
        self.transactions.merge(other.transactions);
        for (mine, theirs) in self.by_op.iter_mut().zip(&other.by_op) {
            mine.merge(*theirs);
        }
        self.first_cycle = match (self.first_cycle, other.first_cycle) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_cycle = self.last_cycle.max(other.last_cycle);
    }

    /// Total transactions observed (before filtering).
    pub fn transactions(&self) -> u64 {
        self.transactions.value()
    }

    /// Transactions of one kind.
    pub fn count(&self, op: BusOp) -> u64 {
        self.by_op[op.index()].value()
    }

    /// Whether any global counter saturated (the 40-bit ceiling).
    pub fn any_saturated(&self) -> bool {
        self.transactions.saturated() || self.by_op.iter().any(|c| c.saturated())
    }

    /// Bus cycle of the first observed transaction (`None` before any).
    pub fn first_cycle(&self) -> Option<u64> {
        self.first_cycle
    }

    /// Bus cycle of the most recent observed transaction (0 before any).
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Bus cycles between the first and last observed transaction.
    pub fn observed_span_cycles(&self) -> u64 {
        self.last_cycle - self.first_cycle.unwrap_or(self.last_cycle)
    }

    /// Zeroes everything.
    pub fn reset(&mut self) {
        *self = GlobalCounters::default();
    }
}

/// The board's bus-facing stage: address filter, global event counters,
/// the node controllers' transaction buffers, and retry accounting.
///
/// [`MemoriesBoard::split`] separates a board into one front end plus
/// node shards. The front end stays with the transaction producer: it
/// observes and filters each raw transaction exactly once (so filter and
/// global statistics are identical to a serial run no matter how many
/// shards snoop behind it). For every admitted transaction it runs each
/// node's buffer model (§3.3) on the node's event, records the nodes
/// whose full buffer dropped the event in the forwarded transaction's
/// [`drop_mask`](Transaction::drop_mask), and posts the retry at once.
/// Buffer timing thus sees each node's whole event stream in order, no
/// matter how the node is divided among shards.
#[derive(Clone, Debug)]
pub struct BoardFrontEnd {
    filter: AddressFilter,
    global: GlobalCounters,
    allow_retry: bool,
    retries_posted: u64,
    /// One transaction buffer per node, in node-id order.
    buffers: Vec<TransactionBuffer>,
}

impl BoardFrontEnd {
    /// Observes one raw bus transaction (global counters, filter and, if
    /// admitted, node buffers) and returns the transaction to forward to
    /// the node controllers, carrying its drop mask, or `None` if the
    /// filter dropped it. Counts a posted retry if any node's buffer was
    /// full and the board posts retries.
    pub fn forward(&mut self, txn: &Transaction) -> Option<Transaction> {
        let mut forwarded = *txn;
        self.forward_in_place(&mut forwarded).then_some(forwarded)
    }

    /// [`BoardFrontEnd::forward`] on `txn` itself: sets its drop mask
    /// and returns whether it is forwarded.
    #[inline]
    fn forward_in_place(&mut self, txn: &mut Transaction) -> bool {
        self.global.observe(txn);
        if !self.filter.admit(txn) {
            return false;
        }
        let events = self.filter.partition().event_nodes(txn);
        let mut dropped = 0u8;
        for (i, buffer) in self.buffers.iter_mut().enumerate() {
            if events & (1 << i) != 0 && !buffer.arrive(txn.cycle) {
                dropped |= 1 << i;
            }
        }
        if dropped != 0 && self.allow_retry {
            self.retries_posted += 1;
        }
        txn.set_drop_mask(dropped);
        true
    }

    /// [`BoardFrontEnd::forward`], keeping only whether the transaction
    /// was admitted. A caller that snoops must snoop the forwarded copy,
    /// which carries the drop mask.
    pub fn observe(&mut self, txn: &Transaction) -> bool {
        self.forward(txn).is_some()
    }

    /// Forwards a whole raw block **in place**: every transaction passes
    /// through [`BoardFrontEnd::forward`] exactly once (identical
    /// statistics to per-transaction observation), and the block is left
    /// holding only the forwarded transactions, with their drop masks, in
    /// stream order, with no allocation.
    pub fn filter_block(&mut self, block: &mut TransactionBlock) {
        block.retain(|txn| self.forward_in_place(txn));
    }

    /// Credits `overflows` further posted retries if the board posts
    /// retries. [`BoardFrontEnd::forward`] already counts every retry the
    /// board posts, and [`NodeShard::snoop`] reports none, so this only
    /// adds retries a caller accounts for itself.
    pub fn record_overflows(&mut self, overflows: u64) {
        if self.allow_retry {
            self.retries_posted += overflows;
        }
    }

    /// Whether buffer overflow posts a bus retry.
    pub fn allow_retry(&self) -> bool {
        self.allow_retry
    }

    /// Retries posted so far.
    pub fn retries_posted(&self) -> u64 {
        self.retries_posted
    }

    /// The address filter (partition and filter statistics).
    pub fn filter(&self) -> &AddressFilter {
        &self.filter
    }

    /// The global event counters.
    pub fn global(&self) -> &GlobalCounters {
        &self.global
    }
}

/// The MemorIES board: address filter, global event counters, and up to
/// four lock-stepped node controllers.
///
/// The board is a [`BusListener`]: attach it to a host machine's bus and
/// it passively emulates its configured caches over the live transaction
/// stream. Its only possible effect on the host is the buffer-overflow
/// retry (§3.3/§3.4), surfaced as [`ListenerReaction::Retry`] and counted.
///
/// Lock-step semantics (§3.1): for each admitted transaction, all remote
/// summaries are computed from the *pre-transaction* directory states,
/// then every node controller applies its transition — matching the
/// hardware, where the four FPGAs run in lock step.
///
/// Internally the board is a [`BoardFrontEnd`] (filter + global counters)
/// in front of a single [`NodeShard`] holding every controller; the snoop
/// path is *the same code* the parallel engine runs per shard, and
/// [`MemoriesBoard::split`] / [`MemoriesBoard::assemble`] convert between
/// the two shapes losslessly.
pub struct MemoriesBoard {
    front: BoardFrontEnd,
    shard: NodeShard,
}

impl MemoriesBoard {
    /// Builds a board from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] for invalid slot shapes or parameters.
    pub fn new(config: BoardConfig) -> Result<Self, BoardError> {
        let mut partition = NodePartition::new(
            config
                .slots
                .iter()
                .map(|s| (s.domain, s.cpus.iter().copied())),
        )?;
        for slot in &config.slots {
            if !slot.remote_cpus.is_empty() {
                partition.add_domain_remotes(slot.domain, slot.remote_cpus.iter().copied());
            }
        }
        let nodes: Vec<NodeController> = config
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                NodeController::new(NodeId::new(i as u8), slot.params, slot.protocol.clone())
            })
            .collect();
        let indices = (0..nodes.len() as u8).collect();
        Ok(MemoriesBoard {
            front: BoardFrontEnd {
                filter: AddressFilter::new(config.filter, partition.clone()),
                global: GlobalCounters::default(),
                allow_retry: config.allow_retry,
                retries_posted: 0,
                buffers: vec![TransactionBuffer::new(&config.timing); nodes.len()],
            },
            shard: NodeShard::new(partition, indices, nodes),
        })
    }

    /// Separates the board into its bus-facing front end and up to
    /// `shards` independent node groups for parallel snooping (at least
    /// one).
    ///
    /// While `shards` is at most the number of coherence domains, each
    /// shard owns whole domains. Above that, domains are divided into
    /// address stripes and each shard owns some (domain, stripe)
    /// clusters (see [`NodeShard`]); a single-node board can then use
    /// several shards. The stripe count per domain is a power of two,
    /// capped by its members' geometry, and a domain with a
    /// random-replacement node stays whole, so fewer shards than asked
    /// may come back. A domain whose nodes already hold lines keeps the
    /// stripe count it has. Stripe storage moves into the shards; no
    /// populated tag store is copied.
    ///
    /// Feed every transaction through [`BoardFrontEnd::filter_block`]
    /// (or [`BoardFrontEnd::forward`]) once, give each forwarded
    /// transaction to *every* shard's [`NodeShard::snoop`] in stream
    /// order, then rebuild the board with [`MemoriesBoard::assemble`].
    pub fn split(self, shards: usize) -> (BoardFrontEnd, Vec<NodeShard>) {
        let partition = self.front.filter.partition().clone();
        let nodes: Vec<NodeController> = self.shard.into_members().map(|(_, n)| n).collect();
        let plan = plan_shards(&partition, &nodes, shards);
        let mut pieces: Vec<Vec<Option<NodeController>>> = nodes
            .into_iter()
            .zip(plan.maps)
            .map(|(node, map)| node.into_stripes(map).into_iter().map(Some).collect())
            .collect();
        let shards = plan
            .piles
            .into_iter()
            .map(|pile| {
                let mut ids: Vec<u8> = Vec::new();
                let mut members: Vec<NodeController> = Vec::new();
                for (id, stripe) in pile {
                    let piece = pieces[usize::from(id)][stripe]
                        .take()
                        .expect("plan_shards assigns each stripe exactly once");
                    match members.last_mut() {
                        Some(member) if ids.last() == Some(&id) => member
                            .absorb(piece)
                            .expect("pieces of one node share its stripe map"),
                        _ => {
                            ids.push(id);
                            members.push(piece);
                        }
                    }
                }
                NodeShard::new(partition.clone(), ids, members)
            })
            .collect();
        (self.front, shards)
    }

    /// Reassembles a board from a front end and the shards produced by
    /// [`MemoriesBoard::split`] (in any order). The stripes of a divided
    /// node move back into one controller (no tag store is copied), and
    /// its counters are summed with the saturation-preserving
    /// [`NodeCounters::merge`](crate::NodeCounters::merge).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::ShardAssembly`] if the shards do not cover
    /// the front end's partition exactly (a node or stripe missing,
    /// duplicated, or foreign).
    pub fn assemble(front: BoardFrontEnd, shards: Vec<NodeShard>) -> Result<Self, BoardError> {
        let partition = front.filter.partition().clone();
        let count = partition.node_count();
        let mut slots: Vec<Option<NodeController>> = (0..count).map(|_| None).collect();
        for shard in shards {
            for (id, node) in shard.into_members() {
                let slot =
                    slots
                        .get_mut(usize::from(id))
                        .ok_or_else(|| BoardError::ShardAssembly {
                            detail: format!(
                                "shard carries node{id} outside the {count}-node board"
                            ),
                        })?;
                match slot {
                    Some(have) => have
                        .absorb(node)
                        .map_err(|detail| BoardError::ShardAssembly { detail })?,
                    None => *slot = Some(node),
                }
            }
        }
        let nodes: Vec<NodeController> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.filter(NodeController::is_whole)
                    .ok_or_else(|| BoardError::ShardAssembly {
                        detail: format!("node{i} (or a stripe of it) missing from the shards"),
                    })
            })
            .collect::<Result<_, _>>()?;
        let indices = (0..nodes.len() as u8).collect();
        Ok(MemoriesBoard {
            front,
            shard: NodeShard::new(partition, indices, nodes),
        })
    }

    /// The address filter (partition and filter statistics).
    pub fn filter(&self) -> &AddressFilter {
        self.front.filter()
    }

    /// The global event counters.
    pub fn global(&self) -> &GlobalCounters {
        self.front.global()
    }

    /// Number of configured nodes.
    pub fn node_count(&self) -> usize {
        self.shard.len()
    }

    /// One node controller.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a configured node.
    pub fn node(&self, id: NodeId) -> &NodeController {
        self.shard.node_at(id.index())
    }

    /// Iterates over the node controllers.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeController> {
        self.shard.nodes().iter()
    }

    /// Derived statistics of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a configured node.
    pub fn node_stats(&self, id: NodeId) -> NodeStats {
        self.shard.node_at(id.index()).stats()
    }

    /// Retries the board posted on the bus (should stay zero in healthy
    /// runs — §3.3).
    pub fn retries_posted(&self) -> u64 {
        self.front.retries_posted
    }

    /// A point-in-time copy of every counter the console can read while
    /// the workload keeps running — the live-monitoring primitive (§3's
    /// "counters readable while the workload runs"). Copies counters
    /// only; directories and tag stores are untouched, so a snapshot
    /// never perturbs the emulation.
    pub fn snapshot(&self) -> crate::snapshot::BoardSnapshot {
        crate::snapshot::BoardSnapshot {
            global: self.front.global.clone(),
            filter: *self.front.filter.stats(),
            retries_posted: self.front.retries_posted,
            nodes: self
                .shard
                .nodes()
                .iter()
                .map(|n| n.counters().clone())
                .collect(),
        }
    }

    /// Renders a full statistics report — the console software's
    /// statistics-extraction dump: global transaction counts, filter
    /// activity, and every node's derived statistics and raw counters.
    pub fn statistics_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "board: {} bus transactions observed over {} cycles, {} retries posted",
            self.front.global.transactions(),
            self.front.global.observed_span_cycles(),
            self.front.retries_posted
        )
        .expect("writing to String cannot fail");
        writeln!(out, "{}", self.front.filter.stats()).expect("infallible");
        for node in self.shard.nodes() {
            let stats = node.stats();
            writeln!(
                out,
                "\n{} [{} | {}]: {}",
                node.id(),
                node.params(),
                node.protocol().name(),
                stats
            )
            .expect("infallible");
            write!(out, "{}", stats.counters()).expect("infallible");
        }
        out
    }

    /// Clears all statistics (global, filter, and node counters) while
    /// preserving emulated cache contents — the console's
    /// statistics-extraction reset.
    pub fn reset_statistics(&mut self) {
        self.front.global.reset();
        self.front.filter.reset_stats();
        for n in self.shard.nodes_mut() {
            n.reset_counters();
        }
        self.front.retries_posted = 0;
    }

    fn observe(&mut self, txn: &Transaction) -> ListenerReaction {
        let Some(forwarded) = self.front.forward(txn) else {
            return ListenerReaction::Proceed;
        };
        self.shard.snoop(&forwarded);
        if forwarded.drop_mask() != 0 && self.front.allow_retry {
            ListenerReaction::Retry
        } else {
            ListenerReaction::Proceed
        }
    }

    /// Batched ingest: observes every transaction of `txns` in stream
    /// order through the same snoop/filter/update pipeline as
    /// [`BusListener::on_transaction`] — counters, tag directories, and
    /// retry accounting are bit-identical — with one virtual call per
    /// block instead of one per transaction.
    ///
    /// Returns [`ListenerReaction::Retry`] if any transaction in the block
    /// overflowed a node buffer (and the board is configured to post
    /// retries). The reaction necessarily covers the block as a whole:
    /// batched delivery trades per-transaction retry feedback for
    /// throughput, which §3.3 reports is how the board behaved in practice
    /// (no retry ever posted in months of lab use).
    pub fn observe_block(&mut self, txns: &[Transaction]) -> ListenerReaction {
        let mut reaction = ListenerReaction::Proceed;
        for txn in txns {
            if self.observe(txn) == ListenerReaction::Retry {
                reaction = ListenerReaction::Retry;
            }
        }
        reaction
    }
}

impl BusListener for MemoriesBoard {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.observe(txn)
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        self.observe_block(block.as_slice())
    }
}

impl fmt::Debug for MemoriesBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoriesBoard")
            .field("nodes", &self.shard.nodes())
            .field("transactions", &self.front.global.transactions())
            .field("retries_posted", &self.front.retries_posted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::NodeCounter;
    use memories_bus::{Address, SnoopResponse};
    use memories_protocol::{RemoteSummary, StateId};

    fn params(capacity: u64) -> CacheParams {
        CacheParams::builder()
            .capacity(capacity)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    fn txn(seq: u64, proc: u8, op: BusOp, addr: u64) -> Transaction {
        // Space transactions out in time so buffers drain.
        Transaction::new(
            seq,
            seq * 60,
            ProcId::new(proc),
            op,
            Address::new(addr),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn single_node_counts_demand_traffic() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x0));
        b.on_transaction(&txn(1, 1, BusOp::Read, 0x0));
        b.on_transaction(&txn(2, 2, BusOp::Rwitm, 0x1000));
        let s = b.node_stats(NodeId::new(0));
        assert_eq!(s.demand_references(), 3);
        assert_eq!(s.demand_misses(), 2);
        assert_eq!(s.demand_hits(), 1);
        assert_eq!(b.global().transactions(), 3);
    }

    #[test]
    fn control_traffic_never_reaches_nodes() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Sync, 0x0));
        b.on_transaction(&txn(1, 0, BusOp::IoWrite, 0x0));
        b.on_transaction(&txn(2, 0, BusOp::Interrupt, 0x0));
        assert_eq!(b.node_stats(NodeId::new(0)).demand_references(), 0);
        assert_eq!(b.global().transactions(), 3);
        assert_eq!(b.filter().stats().control_filtered, 3);
    }

    #[test]
    fn multi_node_remote_traffic_invalidates() {
        let cfg = BoardConfig::multi_node(
            params(4096),
            vec![
                (0..4).map(ProcId::new).collect(),
                (4..8).map(ProcId::new).collect(),
            ],
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // CPU 0 (node 0) writes a line; CPU 4 (node 1) then writes it.
        b.on_transaction(&txn(0, 0, BusOp::Rwitm, 0x2000));
        assert!(!b
            .node(NodeId::new(0))
            .probe(Address::new(0x2000))
            .is_invalid());
        b.on_transaction(&txn(1, 4, BusOp::Rwitm, 0x2000));
        assert!(b
            .node(NodeId::new(0))
            .probe(Address::new(0x2000))
            .is_invalid());
        assert!(!b
            .node(NodeId::new(1))
            .probe(Address::new(0x2000))
            .is_invalid());
        let n0 = b.node_stats(NodeId::new(0));
        assert_eq!(n0.counters().get(NodeCounter::RemoteInvalidations), 1);
        assert_eq!(n0.interventions_modified(), 1);
    }

    #[test]
    fn remote_summary_feeds_fill_state() {
        // With MESI, a read miss while another node holds the line shared
        // must fill S, not E.
        let cfg = BoardConfig::multi_node(
            params(4096),
            vec![
                (0..4).map(ProcId::new).collect(),
                (4..8).map(ProcId::new).collect(),
            ],
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x3000)); // node0: E
        b.on_transaction(&txn(1, 4, BusOp::Read, 0x3000)); // node1 sees remote Shared
        let n1 = b.node(NodeId::new(1));
        let state = n1.probe(Address::new(0x3000));
        assert_eq!(n1.protocol().state_name(state), "S");
        // And node0 was downgraded by the remote read.
        let n0 = b.node(NodeId::new(0));
        assert_eq!(
            n0.protocol().state_name(n0.probe(Address::new(0x3000))),
            "S"
        );
    }

    #[test]
    fn parallel_configs_are_isolated() {
        // Figure 4 mode: same CPUs, two cache sizes, independent domains.
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(8192)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        for i in 0..64u64 {
            b.on_transaction(&txn(i, (i % 8) as u8, BusOp::Read, i * 128));
        }
        let s0 = b.node_stats(NodeId::new(0));
        let s1 = b.node_stats(NodeId::new(1));
        // Both nodes saw every reference as local demand traffic.
        assert_eq!(s0.demand_references(), 64);
        assert_eq!(s1.demand_references(), 64);
        // No cross-domain interventions or invalidations.
        assert_eq!(s0.counters().get(NodeCounter::RemoteReadsSeen), 0);
        assert_eq!(s1.counters().get(NodeCounter::RemoteReadsSeen), 0);
        // The bigger cache can only do better.
        assert!(s1.demand_misses() <= s0.demand_misses());
    }

    #[test]
    fn identical_parallel_configs_agree_exactly() {
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(4096)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        for i in 0..500u64 {
            let op = match i % 3 {
                0 => BusOp::Read,
                1 => BusOp::Rwitm,
                _ => BusOp::WriteBack,
            };
            b.on_transaction(&txn(i, (i % 8) as u8, op, (i * 7 % 64) * 128));
        }
        let s0 = b.node_stats(NodeId::new(0));
        let s1 = b.node_stats(NodeId::new(1));
        assert_eq!(s0.counters(), s1.counters());
    }

    #[test]
    fn board_posts_retry_only_on_overflow() {
        let mut cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        cfg.timing = TimingConfig {
            buffer_capacity: 4,
            ..TimingConfig::default()
        };
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // Back-to-back transactions in the same cycle overflow a 4-deep
        // buffer.
        let mut retried = false;
        for i in 0..16u64 {
            let t = Transaction::new(
                i,
                0,
                ProcId::new(0),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            );
            if b.on_transaction(&t) == ListenerReaction::Retry {
                retried = true;
            }
        }
        assert!(retried);
        assert!(b.retries_posted() > 0);
    }

    #[test]
    fn board_never_retries_at_paper_utilization() {
        let cfg = BoardConfig::single_node(params(65536), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // 20% utilization spacing (60 cycles between 12-cycle txns).
        for i in 0..50_000u64 {
            let t = txn(i, (i % 8) as u8, BusOp::Read, (i % 512) * 128);
            assert_eq!(b.on_transaction(&t), ListenerReaction::Proceed);
        }
        assert_eq!(b.retries_posted(), 0);
    }

    #[test]
    fn reset_statistics_preserves_directories() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x0));
        b.reset_statistics();
        assert_eq!(b.global().transactions(), 0);
        assert_eq!(b.node_stats(NodeId::new(0)).demand_references(), 0);
        assert_ne!(
            b.node(NodeId::new(0)).probe(Address::new(0x0)),
            StateId::INVALID
        );
    }

    #[test]
    fn statistics_report_covers_every_node() {
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(8192)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        b.on_transaction(&txn(0, 0, BusOp::Read, 0x0));
        let report = b.statistics_report();
        assert!(report.contains("node0"));
        assert!(report.contains("node1"));
        assert!(report.contains("mesi"));
        assert!(report.contains("read-misses"));
        assert!(report.contains("filter"));
    }

    fn mixed_stream(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                let op = match i % 4 {
                    0 => BusOp::Read,
                    1 => BusOp::Rwitm,
                    2 => BusOp::DClaim,
                    _ => BusOp::WriteBack,
                };
                txn(i, (i % 8) as u8, op, (i * 13 % 128) * 128)
            })
            .collect()
    }

    /// Drives the same stream serially and through split shards; both
    /// boards must end bit-identical.
    fn assert_split_matches_serial(cfg: BoardConfig, shards: usize) {
        let stream = mixed_stream(2_000);
        let mut serial = MemoriesBoard::new(cfg.clone()).unwrap();
        for t in &stream {
            serial.on_transaction(t);
        }

        let (mut front, mut shard_vec) = MemoriesBoard::new(cfg).unwrap().split(shards);
        let mut overflows = 0u64;
        for t in &stream {
            if !front.observe(t) {
                continue;
            }
            let mut any = false;
            for s in &mut shard_vec {
                any |= s.snoop(t);
            }
            if any {
                overflows += 1;
            }
        }
        front.record_overflows(overflows);
        let parallel = MemoriesBoard::assemble(front, shard_vec).unwrap();

        assert_eq!(serial.statistics_report(), parallel.statistics_report());
        for i in 0..serial.node_count() {
            let id = NodeId::new(i as u8);
            assert_eq!(serial.node(id).counters(), parallel.node(id).counters());
        }
        assert_eq!(serial.retries_posted(), parallel.retries_posted());
    }

    #[test]
    fn split_shards_match_serial_for_parallel_configs() {
        let cfg = || {
            BoardConfig::parallel_configs(
                vec![params(4096), params(8192), params(16384)],
                (0..8).map(ProcId::new).collect(),
            )
            .unwrap()
        };
        for shards in [1, 2, 3, 8] {
            assert_split_matches_serial(cfg(), shards);
        }
    }

    #[test]
    fn split_keeps_coherent_domains_together() {
        // A four-node single-domain machine shards by address stripe:
        // each shard holds the same stripe of every node in the domain.
        let cfg = BoardConfig::multi_node(
            params(4096),
            (0..4)
                .map(|n| ((n * 2)..(n * 2 + 2)).map(ProcId::new).collect())
                .collect(),
        )
        .unwrap();
        let (_, shards) = MemoriesBoard::new(cfg.clone()).unwrap().split(4);
        assert_eq!(shards.len(), 4, "one domain stripes over four shards");
        for shard in &shards {
            assert_eq!(shard.node_ids().count(), 4, "a stripe spans the domain");
        }
        assert_split_matches_serial(cfg, 4);
    }

    /// Every line `stream` touched, probed on every node.
    fn directory(board: &MemoriesBoard, stream: &[Transaction]) -> Vec<StateId> {
        board
            .nodes()
            .flat_map(|n| stream.iter().map(|t| n.probe(t.addr)))
            .collect()
    }

    #[test]
    fn split_and_assemble_round_trip_keeps_every_entry() {
        let cfg = || {
            BoardConfig::multi_node(
                params(4096),
                vec![
                    (0..4).map(ProcId::new).collect(),
                    (4..8).map(ProcId::new).collect(),
                ],
            )
            .unwrap()
        };
        // 96 lines over two 32-line caches: hits, evictions and remote
        // traffic in every set, so the replacement order matters.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let stream: Vec<Transaction> = (0..3_000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let op =
                    [BusOp::Read, BusOp::Read, BusOp::Rwitm, BusOp::WriteBack][(x % 4) as usize];
                txn(i, (x >> 8) as u8 % 8, op, (x >> 16) % 96 * 128)
            })
            .collect();
        let (head, tail) = stream.split_at(2_000);
        // A fresh board takes any stripe count: four, reassembled at once
        // and then driven serially, next to a board never split.
        let (front, parts) = MemoriesBoard::new(cfg()).unwrap().split(4);
        assert_eq!(parts.len(), 4);
        let mut board = MemoriesBoard::assemble(front, parts).unwrap();
        let mut reference = MemoriesBoard::new(cfg()).unwrap();
        for t in head {
            board.on_transaction(t);
            reference.on_transaction(t);
        }
        let want = directory(&reference, &stream);
        let resident: Vec<u64> = reference
            .nodes()
            .map(NodeController::resident_lines)
            .collect();
        assert!(resident.iter().all(|&r| r > 0));
        let report = reference.statistics_report();
        assert_eq!(directory(&board, &stream), want);
        assert_eq!(board.statistics_report(), report);

        // Populated, the domain keeps its four stripes: they move into
        // two, one or four shards and back, with nothing snooped between.
        for (shards, parts_wanted) in [(2, 2), (1, 1), (8, 4), (4, 4)] {
            let (front, parts) = board.split(shards);
            assert_eq!(parts.len(), parts_wanted);
            board = MemoriesBoard::assemble(front, parts).unwrap();
            assert_eq!(directory(&board, &stream), want, "{shards} shards");
            let got: Vec<u64> = board.nodes().map(NodeController::resident_lines).collect();
            assert_eq!(got, resident, "{shards} shards");
            assert_eq!(board.statistics_report(), report, "{shards} shards");
        }

        // The rest of the stream runs exactly as on the board never split.
        for t in tail {
            board.on_transaction(t);
            reference.on_transaction(t);
        }
        assert_eq!(board.statistics_report(), reference.statistics_report());
        assert_eq!(directory(&board, &stream), directory(&reference, &stream));
    }

    #[test]
    fn snoop_block_matches_the_serial_board_at_any_stripe_count() {
        // 256 KB, 2 ways, 128 B lines: 1024 sets. Two stripes take the
        // branch-free pick; 128 stripes are more than one filter word
        // lists, so every transaction goes through `snoop`'s own check.
        let cfg = || BoardConfig::single_node(params(256 << 10), (0..8).map(ProcId::new)).unwrap();
        let stream = mixed_stream(2_000);
        let mut serial = MemoriesBoard::new(cfg()).unwrap();
        for t in &stream {
            serial.on_transaction(t);
        }
        for shards in [2, 128] {
            let (mut front, mut parts) = MemoriesBoard::new(cfg()).unwrap().split(shards);
            assert_eq!(parts.len(), shards);
            let forwarded: Vec<Transaction> =
                stream.iter().filter_map(|t| front.forward(t)).collect();
            for part in &mut parts {
                part.snoop_block(&forwarded);
            }
            let board = MemoriesBoard::assemble(front, parts).unwrap();
            assert_eq!(board.statistics_report(), serial.statistics_report());
            assert_eq!(directory(&board, &stream), directory(&serial, &stream));
        }
    }

    #[test]
    fn stripe_controllers_read_foreign_lines_as_invalid() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let (mut front, mut shards) = MemoriesBoard::new(cfg).unwrap().split(2);
        // With 128 B lines, lines 0 and 1 lie in stripes 0 and 1.
        for (i, addr) in [0u64, 128].into_iter().enumerate() {
            let t = front.forward(&txn(i as u64, 0, BusOp::Read, addr)).unwrap();
            for shard in &mut shards {
                assert!(!shard.snoop(&t));
            }
        }
        for (j, shard) in shards.iter().enumerate() {
            let node = shard.node(NodeId::new(0)).unwrap();
            let (own, foreign) = if j == 0 { (0, 128) } else { (128, 0) };
            assert!(!node.probe(Address::new(own)).is_invalid());
            assert!(node.probe(Address::new(foreign)).is_invalid());
            assert_eq!(node.summarize(Address::new(foreign)), RemoteSummary::None);
            assert_eq!(node.resident_lines(), 1);
        }
    }

    #[test]
    fn front_end_buffer_drops_events_without_touching_state() {
        let mut cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        cfg.timing = TimingConfig {
            buffer_capacity: 2,
            ..TimingConfig::default()
        };
        let mut b = MemoriesBoard::new(cfg).unwrap();
        // All arrivals in the same cycle: only 2 fit.
        let mut retries = 0;
        for i in 0..5 {
            let t = Transaction::new(
                i,
                0,
                ProcId::new(0),
                BusOp::Read,
                Address::new(i * 128),
                SnoopResponse::Null,
            );
            if b.on_transaction(&t) == ListenerReaction::Retry {
                retries += 1;
            }
        }
        assert_eq!(retries, 3);
        assert_eq!(b.retries_posted(), 3);
        let node = b.node(NodeId::new(0));
        assert_eq!(node.counters().get(NodeCounter::BufferOverflows), 3);
        assert_eq!(node.counters().get(NodeCounter::EventsDropped), 3);
        assert_eq!(node.counters().get(NodeCounter::ReadMisses), 2);
        // Dropped events changed no cache state.
        assert_eq!(node.resident_lines(), 2);
    }

    #[test]
    fn assemble_rejects_missing_and_duplicated_nodes() {
        let cfg = BoardConfig::parallel_configs(
            vec![params(4096), params(8192)],
            (0..8).map(ProcId::new).collect(),
        )
        .unwrap();
        let (front, mut shards) = MemoriesBoard::new(cfg).unwrap().split(2);
        let dropped = shards.pop().unwrap();
        let err = MemoriesBoard::assemble(front.clone(), shards.clone()).unwrap_err();
        assert!(matches!(err, BoardError::ShardAssembly { .. }));

        shards.push(dropped.clone());
        shards.push(dropped);
        let err = MemoriesBoard::assemble(front, shards).unwrap_err();
        assert!(matches!(err, BoardError::ShardAssembly { .. }));
    }

    #[test]
    fn global_counters_merge_matches_serial_observation() {
        let stream = mixed_stream(999);
        let mut serial = GlobalCounters::default();
        for t in &stream {
            serial.observe(t);
        }
        // Round-robin the stream over three banks, then merge.
        let mut banks = vec![GlobalCounters::default(); 3];
        for (i, t) in stream.iter().enumerate() {
            banks[i % 3].observe(t);
        }
        let mut merged = GlobalCounters::default();
        for b in &banks {
            merged.merge(b);
        }
        assert_eq!(merged.transactions(), serial.transactions());
        for op in BusOp::ALL {
            assert_eq!(merged.count(op), serial.count(op));
        }
        assert_eq!(merged.observed_span_cycles(), serial.observed_span_cycles());
    }

    #[test]
    fn global_merge_preserves_saturation() {
        // A shard-local bank whose transaction counter saturated must
        // yield a saturated merged counter even when the re-summed value
        // lands exactly on the 40-bit ceiling (merge into a zero bank).
        let mut saturated_txns = Counter40::of(Counter40::MAX);
        saturated_txns.add(1);
        let part = GlobalCounters {
            transactions: saturated_txns,
            ..GlobalCounters::default()
        };
        assert!(part.any_saturated());
        let mut merged = GlobalCounters::default();
        merged.merge(&part);
        assert_eq!(merged.transactions(), Counter40::MAX);
        assert!(
            merged.any_saturated(),
            "merge silently re-summed a saturated counter"
        );
    }

    #[test]
    fn snapshot_is_consistent_with_live_counters() {
        let cfg = BoardConfig::single_node(params(4096), (0..8).map(ProcId::new)).unwrap();
        let mut b = MemoriesBoard::new(cfg).unwrap();
        for i in 0..100u64 {
            b.on_transaction(&txn(i, (i % 8) as u8, BusOp::Read, (i % 16) * 128));
        }
        let snap = b.snapshot();
        assert_eq!(snap.global.transactions(), 100);
        assert_eq!(snap.filter, *b.filter().stats());
        assert_eq!(snap.nodes.len(), 1);
        assert_eq!(&snap.nodes[0], b.node(NodeId::new(0)).counters());
        assert_eq!(
            snap.node_stats(0).demand_references(),
            b.node_stats(NodeId::new(0)).demand_references()
        );
        // Snapshots are passive: the board keeps running unchanged.
        b.on_transaction(&txn(100, 0, BusOp::Read, 0));
        assert_eq!(snap.global.transactions(), 100);
        assert_eq!(b.global().transactions(), 101);
    }

    #[test]
    fn config_constructors_validate() {
        assert!(matches!(
            BoardConfig::from_slots(vec![]),
            Err(BoardError::NoNodes)
        ));
        let five = (0..5)
            .map(|_| NodeSlot::new(params(4096), [ProcId::new(0)]))
            .collect();
        assert!(matches!(
            BoardConfig::from_slots(five),
            Err(BoardError::TooManyNodes { requested: 5 })
        ));
    }
}
