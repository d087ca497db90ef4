//! NUMA directory and remote-cache emulation firmware (§2.3).
//!
//! "MemorIES can also emulate NUMA directory protocols, for example, a
//! system with 4 NUMA nodes kept coherent using a sparse-directory cache
//! coherence scheme. The memory address space can be partitioned so that
//! one of the 4 nodes is the 'home' for that particular partition. ... If
//! an entry gets evicted out of the sparse directory, then the other L3
//! nodes can be informed about the eviction so that the entry can also be
//! invalidated in the other L3 tag directories." Each node's private
//! memory can additionally hold a remote-cache tag directory.

use std::fmt;

use memories_bus::{Address, BusListener, BusOp, Geometry, ListenerReaction, ProcId, Transaction};
use memories_protocol::StateId;

use crate::error::BoardError;
use crate::filter::NodePartition;
use crate::params::CacheParams;
use crate::tagstore::TagStore;

/// L3 directory states used by the NUMA firmware (a fixed MSI-style
/// scheme; the programmable-table machinery belongs to the main board
/// firmware).
const L3_SHARED: StateId = StateId::new_const(1);
const L3_MODIFIED: StateId = StateId::new_const(2);
const RC_VALID: StateId = StateId::new_const(1);

/// Sparse directory shape: a set-associative array of line entries, each
/// holding a presence bitmask over the NUMA nodes and a dirty bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectoryParams {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: u32,
    /// Line size the directory tracks, in bytes.
    pub line_size: u64,
}

impl DirectoryParams {
    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways as usize
    }
}

/// Configuration of the NUMA emulation firmware.
#[derive(Clone, Debug)]
pub struct NumaConfig {
    /// CPU partition: `partition[i]` lists the CPUs of NUMA node `i`
    /// (2–4 nodes).
    pub partition: Vec<Vec<ProcId>>,
    /// Home interleaving granularity in bytes: address `a` is homed at
    /// node `(a / stripe) % nodes`.
    pub home_stripe: u64,
    /// Per-node L3 directory parameters.
    pub l3: CacheParams,
    /// The sparse directory shape at each home node.
    pub directory: DirectoryParams,
    /// Optional per-node remote cache.
    pub remote_cache: Option<CacheParams>,
}

impl NumaConfig {
    /// A four-node configuration splitting `cpus` round-robin, with 4 KB
    /// home striping.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] if the partition is invalid.
    pub fn four_node(
        cpus: impl IntoIterator<Item = ProcId>,
        l3: CacheParams,
        directory: DirectoryParams,
    ) -> Result<Self, BoardError> {
        let mut partition: Vec<Vec<ProcId>> = vec![Vec::new(); 4];
        for (i, cpu) in cpus.into_iter().enumerate() {
            partition[i % 4].push(cpu);
        }
        let cfg = NumaConfig {
            partition,
            home_stripe: 4096,
            l3,
            directory,
            remote_cache: None,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), BoardError> {
        // Reuse the partition validator for shape checks.
        NodePartition::new(
            self.partition
                .iter()
                .map(|cpus| (0u8, cpus.iter().copied())),
        )?;
        Ok(())
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.partition.len()
    }

    /// The home node of an address.
    pub fn home_of(&self, addr: Address) -> usize {
        ((addr.value() / self.home_stripe) % self.partition.len() as u64) as usize
    }

    /// The NUMA node of a requester, if it belongs to the partition.
    pub fn node_of(&self, proc: ProcId) -> Option<usize> {
        self.partition.iter().position(|cpus| cpus.contains(&proc))
    }
}

/// Counters of the NUMA firmware.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NumaCounters {
    /// Requests homed at the requester's own node.
    pub local_requests: u64,
    /// Requests homed at another node.
    pub remote_requests: u64,
    /// Sparse directory hits.
    pub directory_hits: u64,
    /// Sparse directory misses (new entries allocated).
    pub directory_misses: u64,
    /// Directory entries evicted to make room.
    pub directory_evictions: u64,
    /// L3 invalidations caused by directory evictions (the "inform the
    /// other L3 nodes" traffic).
    pub eviction_invalidations: u64,
    /// Invalidations caused by writes to shared lines.
    pub write_invalidations: u64,
    /// Remote-cache hits (only when a remote cache is configured).
    pub remote_cache_hits: u64,
    /// Remote-cache misses.
    pub remote_cache_misses: u64,
}

impl NumaCounters {
    /// Fraction of requests that were remote.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_requests + self.remote_requests;
        if total == 0 {
            0.0
        } else {
            self.remote_requests as f64 / total as f64
        }
    }
}

/// One home node's sparse directory.
#[derive(Clone, Debug)]
struct SparseDirectory {
    geom: Geometry,
    tags: Vec<u64>,
    valid: Vec<bool>,
    presence: Vec<u8>,
    dirty: Vec<bool>,
    stamps: Vec<u64>,
    tick: u64,
}

/// What a directory update did.
struct DirOutcome {
    hit: bool,
    /// Presence mask of nodes to invalidate (write to shared line).
    invalidate_mask: u8,
    /// An evicted entry: (line address, presence mask).
    evicted: Option<(u64, u8)>,
}

impl SparseDirectory {
    fn new(params: &DirectoryParams) -> Self {
        let n = params.entries();
        let geom = Geometry::new(
            params.sets as u64 * u64::from(params.ways) * params.line_size,
            params.ways,
            params.line_size,
        )
        .expect("directory shape validated by construction");
        SparseDirectory {
            geom,
            tags: vec![0; n],
            valid: vec![false; n],
            presence: vec![0; n],
            dirty: vec![false; n],
            stamps: vec![0; n],
            tick: 0,
        }
    }

    fn update(&mut self, addr: Address, node: usize, write: bool) -> DirOutcome {
        self.tick += 1;
        let line = self.geom.line_addr(addr);
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let ways = self.geom.ways() as usize;
        let base = set * ways;
        let node_bit = 1u8 << node;

        for i in base..base + ways {
            if self.valid[i] && self.tags[i] == tag {
                self.stamps[i] = self.tick;
                let others = self.presence[i] & !node_bit;
                let invalidate_mask = if write { others } else { 0 };
                if write {
                    self.presence[i] = node_bit;
                    self.dirty[i] = true;
                } else {
                    self.presence[i] |= node_bit;
                }
                return DirOutcome {
                    hit: true,
                    invalidate_mask,
                    evicted: None,
                };
            }
        }

        // Miss: allocate, evicting LRU if needed.
        let slot = (base..base + ways)
            .find(|&i| !self.valid[i])
            .unwrap_or_else(|| {
                (base..base + ways)
                    .min_by_key(|&i| self.stamps[i])
                    .expect("ways >= 1")
            });
        let evicted = if self.valid[slot] {
            Some((
                self.geom
                    .line_base(self.geom.line_from_parts(self.tags[slot], set))
                    .value(),
                self.presence[slot],
            ))
        } else {
            None
        };
        self.tags[slot] = tag;
        self.valid[slot] = true;
        self.presence[slot] = node_bit;
        self.dirty[slot] = write;
        self.stamps[slot] = self.tick;
        DirOutcome {
            hit: false,
            invalidate_mask: 0,
            evicted,
        }
    }
}

/// The NUMA emulation firmware: per-node L3 directories, per-home sparse
/// directories, and optional per-node remote caches, driven passively
/// from the bus.
pub struct NumaEmulator {
    config: NumaConfig,
    l3: Vec<TagStore>,
    remote_caches: Vec<Option<TagStore>>,
    directories: Vec<SparseDirectory>,
    counters: NumaCounters,
}

impl NumaEmulator {
    /// Builds the firmware.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError`] for an invalid partition.
    pub fn new(config: NumaConfig) -> Result<Self, BoardError> {
        config.validate()?;
        let nodes = config.nodes();
        Ok(NumaEmulator {
            l3: (0..nodes).map(|_| TagStore::new(&config.l3)).collect(),
            remote_caches: (0..nodes)
                .map(|_| config.remote_cache.as_ref().map(TagStore::new))
                .collect(),
            directories: (0..nodes)
                .map(|_| SparseDirectory::new(&config.directory))
                .collect(),
            config,
            counters: NumaCounters::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NumaConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &NumaCounters {
        &self.counters
    }

    /// The L3 directory state a node holds for `addr` (tests).
    pub fn l3_state(&self, node: usize, addr: Address) -> StateId {
        self.l3[node].state(self.config.l3.geometry().line_addr(addr))
    }

    /// Whether a node's remote cache holds `addr` (tests; `false` when no
    /// remote cache is configured).
    pub fn remote_cache_contains(&self, node: usize, addr: Address) -> bool {
        match (&self.remote_caches[node], &self.config.remote_cache) {
            (Some(rc), Some(params)) => rc.contains(params.geometry().line_addr(addr)),
            _ => false,
        }
    }

    fn invalidate_in_nodes(&mut self, addr_value: u64, mask: u8, skip: Option<usize>) -> u64 {
        let mut invalidated = 0;
        let addr = Address::new(addr_value);
        for node in 0..self.config.nodes() {
            if Some(node) == skip || mask & (1 << node) == 0 {
                continue;
            }
            let l3_line = self.config.l3.geometry().line_addr(addr);
            if !self.l3[node].invalidate(l3_line).is_invalid() {
                invalidated += 1;
            }
            if let (Some(rc), Some(params)) =
                (&mut self.remote_caches[node], &self.config.remote_cache)
            {
                rc.invalidate(params.geometry().line_addr(addr));
            }
        }
        invalidated
    }
}

impl BusListener for NumaEmulator {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        let write = match txn.op {
            BusOp::Read => false,
            BusOp::Rwitm | BusOp::DClaim => true,
            _ => return ListenerReaction::Proceed,
        };
        let Some(node) = self.config.node_of(txn.proc) else {
            return ListenerReaction::Proceed;
        };
        let home = self.config.home_of(txn.addr);

        if node == home {
            self.counters.local_requests += 1;
        } else {
            self.counters.remote_requests += 1;
            // Remote requests go through the requester's remote cache.
            if let (Some(rc), Some(params)) =
                (&mut self.remote_caches[node], &self.config.remote_cache)
            {
                let line = params.geometry().line_addr(txn.addr);
                match rc.find(line) {
                    Some(slot) => {
                        self.counters.remote_cache_hits += 1;
                        rc.touch_at(slot);
                    }
                    None => {
                        self.counters.remote_cache_misses += 1;
                        rc.allocate_absent(line, RC_VALID);
                    }
                }
            }
        }

        // The requester's L3 directory tracks the line (`allocate` records
        // the use of a line already resident).
        let l3_line = self.config.l3.geometry().line_addr(txn.addr);
        let state = if write { L3_MODIFIED } else { L3_SHARED };
        self.l3[node].allocate(l3_line, state);

        // The home node's sparse directory.
        let outcome = self.directories[home].update(txn.addr, node, write);
        if outcome.hit {
            self.counters.directory_hits += 1;
        } else {
            self.counters.directory_misses += 1;
        }
        if outcome.invalidate_mask != 0 {
            self.counters.write_invalidations += self.invalidate_in_nodes(
                txn.addr.align_down(self.config.directory.line_size).value(),
                outcome.invalidate_mask,
                Some(node),
            );
        }
        if let Some((evicted_addr, presence)) = outcome.evicted {
            self.counters.directory_evictions += 1;
            // Inform the L3 nodes: the evicted entry's sharers must drop
            // the line (the sparse directory can no longer track it).
            self.counters.eviction_invalidations +=
                self.invalidate_in_nodes(evicted_addr, presence, None);
        }
        ListenerReaction::Proceed
    }
}

impl fmt::Debug for NumaEmulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NumaEmulator")
            .field("nodes", &self.config.nodes())
            .field("counters", &self.counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memories_bus::SnoopResponse;

    fn config(dir_sets: usize) -> NumaConfig {
        let l3 = CacheParams::builder()
            .capacity(8192)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        NumaConfig::four_node(
            (0..8).map(ProcId::new),
            l3,
            DirectoryParams {
                sets: dir_sets,
                ways: 2,
                line_size: 128,
            },
        )
        .unwrap()
    }

    fn txn(proc: u8, op: BusOp, addr: u64) -> Transaction {
        Transaction::new(
            0,
            0,
            ProcId::new(proc),
            op,
            Address::new(addr),
            SnoopResponse::Null,
        )
    }

    #[test]
    fn home_striping_and_node_mapping() {
        let c = config(16);
        assert_eq!(c.home_of(Address::new(0)), 0);
        assert_eq!(c.home_of(Address::new(4096)), 1);
        assert_eq!(c.home_of(Address::new(3 * 4096)), 3);
        assert_eq!(c.home_of(Address::new(4 * 4096)), 0);
        // Round-robin partition: cpu0->node0, cpu1->node1, cpu5->node1.
        assert_eq!(c.node_of(ProcId::new(0)), Some(0));
        assert_eq!(c.node_of(ProcId::new(5)), Some(1));
        assert_eq!(c.node_of(ProcId::new(13)), None);
    }

    #[test]
    fn local_vs_remote_separation() {
        let mut n = NumaEmulator::new(config(16)).unwrap();
        // cpu0 is node 0; address 0 is homed at node 0 -> local.
        n.on_transaction(&txn(0, BusOp::Read, 0));
        // address 4096 is homed at node 1 -> remote for cpu0.
        n.on_transaction(&txn(0, BusOp::Read, 4096));
        assert_eq!(n.counters().local_requests, 1);
        assert_eq!(n.counters().remote_requests, 1);
        assert!((n.counters().remote_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn directory_tracks_sharers_and_write_invalidates() {
        let mut n = NumaEmulator::new(config(16)).unwrap();
        // Two nodes read the same home-0 line.
        n.on_transaction(&txn(0, BusOp::Read, 0)); // node 0
        n.on_transaction(&txn(1, BusOp::Read, 0)); // node 1
        assert!(!n.l3_state(0, Address::new(0)).is_invalid());
        assert!(!n.l3_state(1, Address::new(0)).is_invalid());
        // Node 2 writes it: nodes 0 and 1 must be invalidated.
        n.on_transaction(&txn(2, BusOp::Rwitm, 0));
        assert!(n.l3_state(0, Address::new(0)).is_invalid());
        assert!(n.l3_state(1, Address::new(0)).is_invalid());
        assert!(!n.l3_state(2, Address::new(0)).is_invalid());
        assert_eq!(n.counters().write_invalidations, 2);
    }

    #[test]
    fn directory_eviction_informs_l3_nodes() {
        // A 1-set, 2-way directory: the third distinct home-0 line evicts.
        // Offsets keep the three lines in different L3 sets (the L3 is
        // 8 KB/2-way/128 B = 32 sets) so only the directory conflicts.
        let mut n = NumaEmulator::new(config(1)).unwrap();
        let stripe = 4 * 4096u64; // stride between consecutive home-0 windows
        let (a, b, c) = (0u64, stripe + 128, 2 * stripe + 256);
        n.on_transaction(&txn(0, BusOp::Read, a));
        n.on_transaction(&txn(0, BusOp::Read, b));
        assert_eq!(n.counters().directory_evictions, 0);
        n.on_transaction(&txn(0, BusOp::Read, c));
        assert_eq!(n.counters().directory_evictions, 1);
        assert_eq!(n.counters().eviction_invalidations, 1);
        // The evicted entry (LRU: address a) was invalidated in node 0's L3.
        assert!(n.l3_state(0, Address::new(a)).is_invalid());
        assert!(!n.l3_state(0, Address::new(c)).is_invalid());
    }

    #[test]
    fn remote_cache_counts_hits_after_first_touch() {
        let mut cfg = config(16);
        cfg.remote_cache = Some(
            CacheParams::builder()
                .capacity(4096)
                .ways(2)
                .line_size(128)
                .allow_scaled_down()
                .build()
                .unwrap(),
        );
        let mut n = NumaEmulator::new(cfg).unwrap();
        // cpu0 (node 0) touches a node-1-homed line twice.
        n.on_transaction(&txn(0, BusOp::Read, 4096));
        n.on_transaction(&txn(0, BusOp::Read, 4096));
        assert_eq!(n.counters().remote_cache_misses, 1);
        assert_eq!(n.counters().remote_cache_hits, 1);
        assert!(n.remote_cache_contains(0, Address::new(4096)));
        // Local requests bypass the remote cache.
        n.on_transaction(&txn(0, BusOp::Read, 0));
        assert_eq!(n.counters().remote_cache_misses, 1);
    }

    #[test]
    fn non_memory_traffic_is_ignored() {
        let mut n = NumaEmulator::new(config(16)).unwrap();
        n.on_transaction(&txn(0, BusOp::Sync, 0));
        n.on_transaction(&txn(0, BusOp::WriteBack, 0));
        assert_eq!(
            n.counters().local_requests + n.counters().remote_requests,
            0
        );
    }
}
