//! Shardable node-controller groups: the unit of parallel emulation.
//!
//! The physical board runs its four node-controller FPGAs in lock step
//! (§3.1), each spreading its tag, state and LRU tables over four SDRAM
//! DIMMs; the software model can instead fan the admitted transaction
//! stream out to several [`NodeShard`]s and snoop them on separate
//! threads.
//!
//! Bit-identical parallelism rests on two structural facts. First, nodes
//! interact only *within* a coherence domain (the remote-summary scan in
//! phase 1 is restricted to same-domain siblings, and cross-domain
//! traffic classifies as `Unrelated`). Second, within a domain, lines in
//! different sets never interact: replacement history is per set, cold
//! tracking is per line and counters are sums. A shard therefore owns
//! either whole domains or one *address stripe* of a domain: the same
//! stripe of every member, so its snoop sees exactly the state the serial
//! board would for every line in the stripe, and produces exactly the
//! counters and directory transitions the serial board would.
//! [`MemoriesBoard::split`](crate::MemoriesBoard::split) enforces this
//! grouping; the serial board itself is just the single full shard.
//!
//! A stripe is a run of consecutive lines one *granule* long, the
//! domain's largest line size, so no member's line straddles two
//! stripes; stripes repeat every `count` granules ([`StripeMap`]). The
//! stripe bits must lie inside every member's set-index bits, so each set
//! falls in one stripe. DESIGN.md §11 has the details.

use memories_bus::{Address, LineAddr, NodeId, Transaction};
use memories_protocol::{AccessEvent, RemoteSummary};

use crate::filter::NodePartition;
use crate::node::NodeController;

/// How one node's line addresses map to address stripes: line `l` lies
/// in stripe `(l >> shift) % count`, where `2^shift` lines make one
/// granule and `count = 2^bits`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StripeMap {
    shift: u32,
    bits: u32,
}

impl StripeMap {
    /// One stripe: the whole store.
    pub(crate) const WHOLE: StripeMap = StripeMap { shift: 0, bits: 0 };

    /// `count` stripes (a power of two) of `2^shift`-line granules.
    pub(crate) fn new(shift: u32, count: usize) -> Self {
        debug_assert!(count.is_power_of_two());
        if count == 1 {
            return StripeMap::WHOLE;
        }
        StripeMap {
            shift,
            bits: count.trailing_zeros(),
        }
    }

    /// Number of stripes.
    pub(crate) fn count(self) -> usize {
        1 << self.bits
    }

    /// The stripe holding `line`.
    pub(crate) fn stripe(self, line: LineAddr) -> usize {
        ((line.value() >> self.shift) & ((1 << self.bits) - 1)) as usize
    }

    /// `line` with its stripe bits removed: its line number within its
    /// stripe. The identity for [`StripeMap::WHOLE`].
    pub(crate) fn local(self, line: LineAddr) -> LineAddr {
        let v = line.value();
        let low = v & ((1 << self.shift) - 1);
        LineAddr::new(low | (v >> (self.shift + self.bits)) << self.shift)
    }
}

/// A branch-free test of whether an address lies in the stripes a
/// member holds: bit `(addr >> shift) & mask` of `held`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StripeFilter {
    shift: u32,
    mask: u64,
    held: u64,
}

impl StripeFilter {
    /// The filter of `node`, or `None` if it holds its whole node or has
    /// more stripes than one word can list.
    fn of(node: &NodeController) -> Option<Self> {
        let map = node.stripe_map();
        if node.is_whole() || map.count() > 64 {
            return None;
        }
        Some(StripeFilter {
            shift: node.line_bits() + map.shift,
            mask: map.count() as u64 - 1,
            held: node.held_stripes().fold(0, |held, j| held | 1 << j),
        })
    }

    fn passes(self, addr: Address) -> bool {
        self.held >> ((addr.value() >> self.shift) & self.mask) & 1 != 0
    }
}

/// What one member does with one transaction.
#[derive(Clone, Copy)]
enum Step {
    /// Nothing: no event for this node, or a line outside its stripes.
    Skip,
    /// The front end dropped the event: count it, change nothing.
    Drop,
    /// Apply the event with this remote summary.
    Apply(AccessEvent, RemoteSummary),
}

/// A group of node controllers that snoops the admitted transaction
/// stream independently of every other shard.
///
/// Obtained from [`MemoriesBoard::split`](crate::MemoriesBoard::split);
/// give each shard to one worker thread (it is `Send`: controllers own
/// all their state), feed every admitted transaction to
/// [`NodeShard::snoop`] in stream order, then hand the shards back to
/// [`MemoriesBoard::assemble`](crate::MemoriesBoard::assemble). A member
/// may be a stripe controller that holds only some of its node's address
/// stripes; it ignores the lines outside them.
#[derive(Clone, Debug)]
pub struct NodeShard {
    /// The full board partition (classification needs global node ids).
    partition: NodePartition,
    /// Global node ids of the members, parallel to `nodes`, ascending.
    indices: Vec<u8>,
    /// The owned controllers.
    nodes: Vec<NodeController>,
    /// Per member: a bitmask over `nodes` positions of its same-domain
    /// siblings, the nodes whose summaries feed its remote input.
    siblings: Vec<u8>,
    /// Whether every member holds its whole node, so no line is skipped.
    whole: bool,
    /// The distinct stripe filters of the members; empty when some member
    /// holds its whole node, so every transaction concerns the shard.
    filters: Vec<StripeFilter>,
    /// Positions of the picked transactions of a block (reused).
    picked: Vec<usize>,
}

impl NodeShard {
    pub(crate) fn new(
        partition: NodePartition,
        indices: Vec<u8>,
        nodes: Vec<NodeController>,
    ) -> Self {
        debug_assert_eq!(indices.len(), nodes.len());
        debug_assert!(nodes.len() <= NodeId::MAX_NODES);
        let domain = |i: u8| partition.domain(NodeId::new(i));
        let siblings = indices
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                indices
                    .iter()
                    .enumerate()
                    .filter(|&(j, &k)| j != pos && domain(k) == domain(i))
                    .fold(0u8, |mask, (j, _)| mask | 1 << j)
            })
            .collect();
        let mut filters: Vec<StripeFilter> = Vec::new();
        for node in &nodes {
            match StripeFilter::of(node) {
                Some(filter) if !filters.contains(&filter) => filters.push(filter),
                Some(_) => {}
                None => {
                    filters.clear();
                    break;
                }
            }
        }
        NodeShard {
            whole: nodes.iter().all(NodeController::is_whole),
            partition,
            indices,
            nodes,
            siblings,
            filters,
            picked: Vec::new(),
        }
    }

    /// Number of node controllers in this shard.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the shard owns no controllers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The global node ids of this shard's members, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.indices.iter().map(|i| NodeId::new(*i))
    }

    /// The member with global id `id`, if this shard owns it.
    pub fn node(&self, id: NodeId) -> Option<&NodeController> {
        let pos = self
            .indices
            .iter()
            .position(|i| usize::from(*i) == id.index())?;
        Some(&self.nodes[pos])
    }

    pub(crate) fn node_at(&self, pos: usize) -> &NodeController {
        &self.nodes[pos]
    }

    pub(crate) fn nodes(&self) -> &[NodeController] {
        &self.nodes
    }

    pub(crate) fn nodes_mut(&mut self) -> &mut [NodeController] {
        &mut self.nodes
    }

    pub(crate) fn into_members(self) -> impl Iterator<Item = (u8, NodeController)> {
        self.indices.into_iter().zip(self.nodes)
    }

    /// Copies every member's counter bank as `(global node id, counters)`
    /// pairs — the shard's contribution to a mid-run
    /// [`BoardSnapshot`](crate::BoardSnapshot). Counters only; tag
    /// stores and directories are not touched.
    pub fn counters_snapshot(&self) -> Vec<(u8, crate::NodeCounters)> {
        self.indices
            .iter()
            .zip(&self.nodes)
            .map(|(id, n)| (*id, n.counters().clone()))
            .collect()
    }

    /// Snoops one *admitted* transaction in lock step across this shard's
    /// controllers, exactly as the serial board does: phase 1 classifies
    /// each member and snapshots remote summaries from pre-transaction
    /// directory state (same-domain siblings only), phase 2 applies every
    /// transition. Members skip lines outside their stripes, and count
    /// the events the front end dropped (the transaction's
    /// [`drop_mask`](Transaction::drop_mask)) without applying them.
    ///
    /// Returns `false`: the front end that forwarded `txn` already posted
    /// any retry it caused, so callers never count one here.
    pub fn snoop(&mut self, txn: &Transaction) -> bool {
        // Lock step, phase 1: classify and snapshot remote summaries from
        // pre-transaction directory state, into a per-member work array
        // on the stack.
        let mut work = [Step::Skip; NodeId::MAX_NODES];
        for (pos, item) in work.iter_mut().enumerate().take(self.nodes.len()) {
            if !self.whole && !self.nodes[pos].holds(txn.addr) {
                continue;
            }
            let id = self.indices[pos];
            let Some(event) = self.partition.event_for(NodeId::new(id), txn) else {
                continue;
            };
            if txn.drop_mask() & (1 << id) != 0 {
                *item = Step::Drop;
                continue;
            }
            let siblings = self.siblings[pos];
            let remote = (0..self.nodes.len())
                .filter(|j| siblings & (1 << j) != 0)
                .map(|j| self.nodes[j].summarize(txn.addr))
                .fold(RemoteSummary::None, RemoteSummary::max);
            *item = Step::Apply(event, remote);
        }

        // Phase 2: apply transitions.
        for (node, item) in self.nodes.iter_mut().zip(work) {
            match item {
                Step::Skip => {}
                Step::Drop => node.count_drop(),
                Step::Apply(event, remote) => {
                    node.process_with_resp(event, txn.addr, txn.cycle, remote, txn.resp);
                }
            }
        }
        false
    }

    /// Snoops a block of admitted transactions in stream order, with the
    /// same result as [`NodeShard::snoop`] on each.
    ///
    /// A shard of address stripes first picks out, without branching, the
    /// transactions whose line lies in one of its stripes, and snoops only
    /// those: the lines it does not hold then cost it a few instructions
    /// instead of a mispredicted branch each.
    pub fn snoop_block(&mut self, txns: &[Transaction]) {
        if self.filters.is_empty() {
            for txn in txns {
                self.snoop(txn);
            }
            return;
        }
        let mut picked = std::mem::take(&mut self.picked);
        if picked.len() < txns.len() {
            picked.resize(txns.len(), 0);
        }
        let mut n = 0;
        for (i, txn) in txns.iter().enumerate() {
            picked[n] = i;
            let held = self
                .filters
                .iter()
                .fold(false, |held, f| held | f.passes(txn.addr));
            n += usize::from(held);
        }
        for &i in &picked[..n] {
            self.snoop(&txns[i]);
        }
        self.picked = picked;
    }
}

/// How [`MemoriesBoard::split`](crate::MemoriesBoard::split) divides a
/// board: the stripe map each node takes, and each shard's members as
/// `(node id, stripe)` pairs, ascending.
pub(crate) struct ShardPlan {
    pub(crate) maps: Vec<StripeMap>,
    pub(crate) piles: Vec<Vec<(u8, usize)>>,
}

/// Plans `shards` shards over `nodes` (the board's whole controllers, in
/// id order).
///
/// While `shards` is at most the domain count, each shard gets whole
/// domains and every node keeps its current stripes. Above that, every
/// domain is divided into the same power-of-two number of address
/// stripes, capped per domain by its members' geometry (a domain with a
/// random-replacement member stays whole), doubling until there are at
/// least `shards` (domain, stripe) clusters or no domain can divide
/// further. A domain whose nodes already hold lines keeps its current
/// stripe count, so no populated store is ever re-striped. Clusters, in
/// order of each domain's first node, are dealt round-robin.
pub(crate) fn plan_shards(
    partition: &NodePartition,
    nodes: &[NodeController],
    shards: usize,
) -> ShardPlan {
    let mut domains: Vec<(u8, Vec<u8>)> = Vec::new();
    for i in 0..partition.node_count() as u8 {
        let domain = partition.domain(NodeId::new(i));
        match domains.iter_mut().find(|(d, _)| *d == domain) {
            Some((_, ids)) => ids.push(i),
            None => domains.push((domain, vec![i])),
        }
    }
    let member = |i: u8| &nodes[usize::from(i)];
    // Per domain: the granule (its largest line size), the most stripes
    // it may take, and whether its stripe count may change at all: a
    // domain that holds lines keeps its current count.
    let shapes: Vec<(u32, usize, bool)> = domains
        .iter()
        .map(|(_, ids)| {
            let granule = ids
                .iter()
                .map(|&i| member(i).line_bits())
                .max()
                .unwrap_or(0);
            if ids.iter().all(|&i| member(i).is_empty()) {
                let cap = ids.iter().map(|&i| member(i).stripe_cap(granule)).min();
                (granule, cap.unwrap_or(1), true)
            } else {
                (granule, member(ids[0]).stripe_map().count(), false)
            }
        })
        .collect();
    let count =
        |k: usize, &(_, cap, free): &(u32, usize, bool)| if free { k.min(cap) } else { cap };
    // Whole domains while there are enough of them; above that, the
    // smallest common stripe count that gives every shard a cluster.
    let whole = shards <= domains.len();
    let mut k = 1;
    while !whole
        && shapes.iter().map(|shape| count(k, shape)).sum::<usize>() < shards
        && shapes.iter().any(|&(_, cap, free)| free && cap > k)
    {
        k *= 2;
    }
    let mut maps: Vec<StripeMap> = nodes.iter().map(NodeController::stripe_map).collect();
    // The clusters to deal: whole domains, or (domain, stripe) pairs.
    let mut clusters: Vec<Vec<(u8, usize)>> = Vec::new();
    for ((_, ids), shape) in domains.iter().zip(&shapes) {
        let (granule, _, free) = *shape;
        let count = count(k, shape);
        if free {
            for &i in ids {
                maps[usize::from(i)] = StripeMap::new(granule - member(i).line_bits(), count);
            }
        }
        let stripe = |j: usize| ids.iter().map(move |&i| (i, j));
        if whole {
            clusters.push((0..count).flat_map(stripe).collect());
        } else {
            clusters.extend((0..count).map(|j| stripe(j).collect()));
        }
    }
    let mut piles: Vec<Vec<(u8, usize)>> = vec![Vec::new(); shards.clamp(1, clusters.len())];
    let n = piles.len();
    for (c, members) in clusters.into_iter().enumerate() {
        piles[c % n].extend(members);
    }
    for pile in &mut piles {
        pile.sort_unstable();
    }
    ShardPlan { maps, piles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::ProcId;

    fn partition(domains: &[u8]) -> NodePartition {
        // One distinct CPU per node, to keep shapes valid.
        NodePartition::new(
            domains
                .iter()
                .enumerate()
                .map(|(i, d)| (*d, [ProcId::new(i as u8)])),
        )
        .unwrap()
    }

    fn params(capacity: u64) -> crate::CacheParams {
        crate::CacheParams::builder()
            .capacity(capacity)
            .ways(1)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap()
    }

    #[test]
    fn siblings_are_the_other_members_of_the_same_domain() {
        let nodes = (0..4)
            .map(|i| {
                NodeController::new(
                    NodeId::new(i),
                    params(1 << 10),
                    memories_protocol::standard::mesi(),
                )
            })
            .collect();
        // Nodes 0,2 in domain 0; nodes 1,3 in domain 1.
        let shard = NodeShard::new(partition(&[0, 1, 0, 1]), vec![0, 1, 2, 3], nodes);
        assert_eq!(shard.siblings, [0b0100, 0b1000, 0b0001, 0b0010]);
    }

    #[test]
    fn remote_summaries_ignore_other_domains() {
        use crate::{BoardConfig, MemoriesBoard};
        use memories_bus::{Address, BusListener, BusOp, SnoopResponse};

        // Figure 4: two configurations over the same CPU, each its own
        // domain. Node 0 holds one line; node 1 holds many.
        let config =
            BoardConfig::parallel_configs(vec![params(128), params(4 << 10)], vec![ProcId::new(0)]);
        let mut board = MemoriesBoard::new(config.unwrap()).unwrap();
        let (a, b) = (Address::new(0), Address::new(128));
        for (i, addr) in [a, b, a].into_iter().enumerate() {
            let txn = Transaction::new(
                i as u64,
                i as u64 * 100,
                ProcId::new(0),
                BusOp::Read,
                addr,
                SnoopResponse::Null,
            );
            board.on_transaction(&txn);
        }
        // Node 0 refilled `a` while node 1 still held it: only a
        // cross-domain summary could make the refill shared.
        let node = board.node(NodeId::new(0));
        assert_eq!(node.protocol().state_name(node.probe(a)), "E");
    }

    /// Whole MESI nodes with one line size and capacity each.
    fn nodes(shapes: &[(u64, u64)]) -> Vec<NodeController> {
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(capacity, line))| {
                let params = crate::CacheParams::builder()
                    .capacity(capacity)
                    .ways(2)
                    .line_size(line)
                    .allow_scaled_down()
                    .build()
                    .unwrap();
                NodeController::new(
                    NodeId::new(i as u8),
                    params,
                    memories_protocol::standard::mesi(),
                )
            })
            .collect()
    }

    /// `count` whole 64 KB, 128 B-line nodes (256 sets each).
    fn uniform(count: usize) -> Vec<NodeController> {
        nodes(&vec![(64 << 10, 128); count])
    }

    /// The node ids of each pile, without stripe numbers.
    fn ids(plan: &ShardPlan) -> Vec<Vec<u8>> {
        plan.piles
            .iter()
            .map(|pile| {
                let mut ids: Vec<u8> = pile.iter().map(|&(id, _)| id).collect();
                ids.dedup();
                ids
            })
            .collect()
    }

    #[test]
    fn plan_keeps_domains_whole() {
        // Nodes 0,2 in domain 0; nodes 1,3 in domain 1.
        let p = partition(&[0, 1, 0, 1]);
        let plan = plan_shards(&p, &uniform(4), 2);
        assert_eq!(ids(&plan), vec![vec![0, 2], vec![1, 3]]);
        assert!(plan.maps.iter().all(|&m| m == StripeMap::WHOLE));
    }

    #[test]
    fn plan_clamps_to_cluster_count() {
        // One domain of one-set nodes: no stripe fits inside a set index,
        // so everything is one cluster no matter how many shards.
        let p = partition(&[0, 0, 0, 0]);
        let one_set = nodes(&[(256, 128); 4]);
        assert_eq!(ids(&plan_shards(&p, &one_set, 8)), vec![vec![0, 1, 2, 3]]);
        // Zero shards is treated as one.
        assert_eq!(
            ids(&plan_shards(&p, &uniform(4), 0)),
            vec![vec![0, 1, 2, 3]]
        );
    }

    #[test]
    fn plan_deals_clusters_round_robin() {
        let p = partition(&[0, 1, 2, 3]);
        let four = uniform(4);
        assert_eq!(
            ids(&plan_shards(&p, &four, 2)),
            vec![vec![0, 2], vec![1, 3]]
        );
        assert_eq!(
            ids(&plan_shards(&p, &four, 4)),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
    }

    #[test]
    fn plan_stripes_one_domain_over_eight_shards() {
        let p = partition(&[0, 0, 0, 0]);
        let plan = plan_shards(&p, &uniform(4), 8);
        assert!(plan.maps.iter().all(|&m| m == StripeMap::new(0, 8)));
        // Each shard holds one stripe of every member of the domain.
        let want: Vec<Vec<(u8, usize)>> =
            (0..8).map(|j| (0..4).map(|i| (i, j)).collect()).collect();
        assert_eq!(plan.piles, want);
    }

    #[test]
    fn plan_stripes_four_domains_over_eight_shards() {
        let p = partition(&[0, 1, 2, 3]);
        let plan = plan_shards(&p, &uniform(4), 8);
        assert!(plan.maps.iter().all(|&m| m == StripeMap::new(0, 2)));
        // (domain, stripe) clusters dealt in order: one per shard.
        let want: Vec<Vec<(u8, usize)>> =
            (0..8).map(|c| vec![(c / 2, usize::from(c % 2))]).collect();
        assert_eq!(plan.piles, want);
    }

    #[test]
    fn plan_stripes_mixed_line_sizes_at_the_largest() {
        // Domain 0 mixes 128 B and 1 KB lines: its granule is 1 KB, which
        // is 8 lines of node 0 and one line of node 2. Domain 1 has only
        // 128 B lines.
        let p = partition(&[0, 1, 0]);
        let plan = plan_shards(
            &p,
            &nodes(&[(64 << 10, 128), (64 << 10, 128), (64 << 10, 1024)]),
            4,
        );
        assert_eq!(
            plan.maps,
            vec![
                StripeMap::new(3, 2),
                StripeMap::new(0, 2),
                StripeMap::new(0, 2)
            ]
        );
        assert_eq!(
            plan.piles,
            vec![
                vec![(0, 0), (2, 0)],
                vec![(0, 1), (2, 1)],
                vec![(1, 0)],
                vec![(1, 1)]
            ]
        );
    }

    #[test]
    fn plan_caps_stripes_inside_every_set_index() {
        // Node 1: 4 KB, 2 ways, 1 KB lines = 2 sets, so one stripe bit
        // above the 1 KB granule fits in its set index; node 0's 256 sets
        // would allow more. The domain takes the smaller cap.
        let p = partition(&[0, 0]);
        let plan = plan_shards(&p, &nodes(&[(64 << 10, 128), (4 << 10, 1024)]), 8);
        assert_eq!(plan.maps, vec![StripeMap::new(3, 2), StripeMap::new(0, 2)]);
        assert_eq!(plan.piles.len(), 2);
        // A second domain keeps striping after the first hit its cap.
        let p = partition(&[0, 0, 1]);
        let plan = plan_shards(
            &p,
            &nodes(&[(64 << 10, 128), (4 << 10, 1024), (64 << 10, 128)]),
            8,
        );
        assert_eq!(plan.maps[2], StripeMap::new(0, 8));
        assert_eq!(plan.piles.len(), 8);
    }

    #[test]
    fn plan_keeps_random_replacement_domains_whole() {
        let p = partition(&[0, 1]);
        let mut two = uniform(2);
        let params = crate::CacheParams::builder()
            .capacity(64 << 10)
            .ways(2)
            .line_size(128)
            .replacement(crate::ReplacementPolicy::Random)
            .allow_scaled_down()
            .build()
            .unwrap();
        two[1] = NodeController::new(NodeId::new(1), params, memories_protocol::standard::mesi());
        let plan = plan_shards(&p, &two, 4);
        assert_eq!(plan.maps, vec![StripeMap::new(0, 4), StripeMap::WHOLE]);
        assert_eq!(
            plan.piles,
            vec![
                vec![(0, 0), (1, 0)],
                vec![(0, 1)],
                vec![(0, 2)],
                vec![(0, 3)]
            ]
        );
    }

    #[test]
    fn stripe_map_numbers_each_stripe_densely() {
        for map in [StripeMap::WHOLE, StripeMap::new(0, 2), StripeMap::new(3, 8)] {
            // Every line gets a distinct (stripe, local) pair, and each
            // stripe's local numbers run densely from zero.
            let mut seen = vec![Vec::new(); map.count()];
            for v in 0..1024u64 {
                let line = LineAddr::new(v);
                seen[map.stripe(line)].push(map.local(line).value());
            }
            for locals in &seen {
                let want: Vec<u64> = (0..locals.len() as u64).collect();
                assert_eq!(locals, &want, "{map:?}");
            }
        }
        // Granules of 8 lines alternate over two stripes.
        let map = StripeMap::new(3, 2);
        let stripes: Vec<usize> = (0..17).map(|v| map.stripe(LineAddr::new(v))).collect();
        assert_eq!(stripes, [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0]);
        assert_eq!(map.local(LineAddr::new(17)), LineAddr::new(9));
    }

    #[test]
    fn plan_keeps_the_stripe_count_of_a_populated_domain() {
        use crate::{BoardConfig, MemoriesBoard};
        use memories_bus::{Address, BusListener, BusOp, SnoopResponse};
        let p = partition(&[0]);
        let config = BoardConfig::single_node(params(64 << 10), [ProcId::new(0)]).unwrap();
        let (front, shards) = MemoriesBoard::new(config).unwrap().split(4);
        let mut board = MemoriesBoard::assemble(front, shards).unwrap();
        let txn = Transaction::new(
            0,
            0,
            ProcId::new(0),
            BusOp::Read,
            Address::new(0),
            SnoopResponse::Null,
        );
        board.on_transaction(&txn);
        let node: Vec<NodeController> = board.nodes().cloned().collect();
        let plan = plan_shards(&p, &node, 8);
        assert_eq!(plan.maps, vec![StripeMap::new(0, 4)]);
        assert_eq!(plan.piles.len(), 4);
        let plan = plan_shards(&p, &node, 2);
        assert_eq!(plan.piles, vec![vec![(0, 0), (0, 2)], vec![(0, 1), (0, 3)]]);
    }
}
