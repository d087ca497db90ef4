//! Shardable node-controller groups: the unit of parallel emulation.
//!
//! The physical board runs its four node-controller FPGAs in lock step
//! (§3.1); the software model can instead fan the admitted transaction
//! stream out to several [`NodeShard`]s, each owning a disjoint subset of
//! the node controllers, and snoop them on separate threads.
//!
//! Bit-identical parallelism rests on one structural fact: nodes interact
//! only *within* a coherence domain (the remote-summary scan in phase 1
//! is restricted to same-domain siblings, and cross-domain traffic
//! classifies as `Unrelated`). A shard therefore always owns *whole
//! domains* — every same-domain sibling of each of its nodes — so its
//! snoop sees exactly the state the serial board would, and produces
//! exactly the counters and directory transitions the serial board would.
//! [`MemoriesBoard::split`](crate::MemoriesBoard::split) enforces this
//! grouping; the serial board itself is just the single full shard.

use memories_bus::{NodeId, Transaction};
use memories_protocol::RemoteSummary;

use crate::filter::NodePartition;
use crate::node::NodeController;

/// A group of node controllers that snoops the admitted transaction
/// stream independently of every other shard.
///
/// Obtained from [`MemoriesBoard::split`](crate::MemoriesBoard::split);
/// give each shard to one worker thread (it is `Send`: controllers own
/// all their state), feed every admitted transaction to
/// [`NodeShard::snoop`] in stream order, then hand the shards back to
/// [`MemoriesBoard::assemble`](crate::MemoriesBoard::assemble).
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
        NodeShard {
            partition,
            indices,
            nodes,
            siblings,
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
    /// transition. Returns whether any member's buffer overflowed.
    ///
    /// The caller is responsible for admission filtering (the address
    /// filter runs once, on the producer side) and for turning overflow
    /// into a bus retry.
    pub fn snoop(&mut self, txn: &Transaction) -> bool {
        // Lock step, phase 1: classify and snapshot remote summaries from
        // pre-transaction directory state, into a per-member work array
        // on the stack.
        let mut work = [None; NodeId::MAX_NODES];
        for (pos, item) in work.iter_mut().enumerate().take(self.nodes.len()) {
            let Some(event) = self
                .partition
                .event_for(NodeId::new(self.indices[pos]), txn)
            else {
                continue;
            };
            let siblings = self.siblings[pos];
            let remote = (0..self.nodes.len())
                .filter(|j| siblings & (1 << j) != 0)
                .map(|j| self.nodes[j].summarize(txn.addr))
                .fold(RemoteSummary::None, RemoteSummary::max);
            *item = Some((event, remote));
        }

        // Phase 2: apply transitions.
        let mut overflow = false;
        for (node, item) in self.nodes.iter_mut().zip(work) {
            if let Some((event, remote)) = item {
                let outcome = node.process_with_resp(event, txn.addr, txn.cycle, remote, txn.resp);
                overflow |= !outcome.accepted;
            }
        }
        overflow
    }
}

/// Groups the node ids `0..count` into whole-domain clusters, in order of
/// each domain's first node, then deals the clusters round-robin over
/// `shards` piles. Returns the per-pile id lists (empty piles dropped).
pub(crate) fn plan_shards(partition: &NodePartition, shards: usize) -> Vec<Vec<u8>> {
    let count = partition.node_count();
    let mut clusters: Vec<(u8, Vec<u8>)> = Vec::new();
    for i in 0..count {
        let domain = partition.domain(NodeId::new(i as u8));
        match clusters.iter_mut().find(|(d, _)| *d == domain) {
            Some((_, ids)) => ids.push(i as u8),
            None => clusters.push((domain, vec![i as u8])),
        }
    }
    let shards = shards.clamp(1, clusters.len().max(1));
    let mut piles: Vec<Vec<u8>> = vec![Vec::new(); shards];
    for (n, (_, ids)) in clusters.into_iter().enumerate() {
        piles[n % shards].extend(ids);
    }
    piles.retain(|p| !p.is_empty());
    for pile in &mut piles {
        pile.sort_unstable();
    }
    piles
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

    #[test]
    fn plan_keeps_domains_whole() {
        // Nodes 0,2 in domain 0; nodes 1,3 in domain 1.
        let p = partition(&[0, 1, 0, 1]);
        let piles = plan_shards(&p, 2);
        assert_eq!(piles, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn plan_clamps_to_cluster_count() {
        let p = partition(&[0, 0, 0, 0]);
        // One domain: everything is one cluster no matter how many shards.
        assert_eq!(plan_shards(&p, 8), vec![vec![0, 1, 2, 3]]);
        // Zero shards is treated as one.
        assert_eq!(plan_shards(&p, 0), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn plan_deals_clusters_round_robin() {
        let p = partition(&[0, 1, 2, 3]);
        assert_eq!(plan_shards(&p, 2), vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(plan_shards(&p, 4), vec![vec![0], vec![1], vec![2], vec![3]]);
    }
}
