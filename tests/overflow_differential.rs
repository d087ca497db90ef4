//! Differential proof for the buffer-overflow path: when node transaction
//! buffers fill and events are dropped, the sharded engine — whole-domain
//! shards and address-stripe shards alike — posts exactly the retries,
//! counts exactly the dropped events and leaves exactly the directories
//! of the serial board.
//!
//! The other differential suites run with buffers large enough that no
//! event is ever dropped. Here streams arrive 0–2 bus cycles apart into
//! buffers of 1–8 entries (the SDRAM drains about one entry per 9.5
//! cycles), so most cases drop many events; every case asserts that some
//! were dropped.
//!
//! Per case, a serial [`MemoriesBoard`] fed one transaction at a time is
//! the reference. An [`EmulationEngine`] at 1, 2, 4 or 8 shards, fed in
//! blocks of 1, 7 or 4096 transactions through either the borrowing
//! (`feed_block`) or the pooled (`feed_pooled`) path, must match it in a
//! counter snapshot taken mid-stream and, at the end, in the retry count,
//! the filter statistics, every node counter and the state of every
//! touched line on every node. So must the same board split by hand into
//! as many shards, its blocks filtered by the front end and each
//! transaction given to every shard's per-transaction `snoop`.

use memories::{BoardConfig, CacheParams, MemoriesBoard, NodeCounter, NodeSlot, TimingConfig};
use memories_bus::{
    Address, BlockPool, BusListener, BusOp, NodeId, ProcId, SnoopResponse, Transaction,
};
use memories_sim::{EmulationEngine, EngineConfig};
use proptest::prelude::*;

fn params(capacity: u64, line: u64) -> CacheParams {
    CacheParams::builder()
        .capacity(capacity)
        .ways(4)
        .line_size(line)
        .allow_scaled_down()
        .build()
        .unwrap()
}

/// The three board shapes: one node; one domain of two nodes with
/// different line sizes; four single-node domains (Figure 4).
fn board(shape: usize, capacity: usize, allow_retry: bool) -> MemoriesBoard {
    let cpus = |range: std::ops::Range<u8>| range.map(ProcId::new).collect::<Vec<_>>();
    let mut cfg = match shape {
        0 => BoardConfig::single_node(params(64 << 10, 128), cpus(0..8)).unwrap(),
        1 => BoardConfig::from_slots(vec![
            NodeSlot::new(params(32 << 10, 128), cpus(0..4)),
            NodeSlot::new(params(64 << 10, 512), cpus(4..8)),
        ])
        .unwrap(),
        _ => BoardConfig::parallel_configs(
            vec![
                params(16 << 10, 128),
                params(32 << 10, 128),
                params(64 << 10, 256),
                params(128 << 10, 128),
            ],
            cpus(0..8),
        )
        .unwrap(),
    };
    cfg.timing = TimingConfig {
        buffer_capacity: capacity,
        ..TimingConfig::default()
    };
    cfg.allow_retry = allow_retry;
    MemoriesBoard::new(cfg).unwrap()
}

fn arb_step() -> impl Strategy<Value = (u8, u8, u64, u64)> {
    (
        0u8..BusOp::ALL.len() as u8,
        0u8..10, // ids 8 and 9 belong to no node
        0u64..384,
        0u64..3,
    )
}

fn build_stream(raw: &[(u8, u8, u64, u64)]) -> Vec<Transaction> {
    let mut cycle = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(op, proc, line, gap))| {
            cycle += gap;
            Transaction::new(
                i as u64,
                cycle,
                ProcId::new(proc),
                BusOp::ALL[op as usize],
                Address::new(line * 128),
                SnoopResponse::Null,
            )
        })
        .collect()
}

/// Feeds `txns` to the engine in blocks of `block` transactions.
fn feed(engine: &mut EmulationEngine, txns: &[Transaction], block: usize, pooled: bool) {
    let pool = BlockPool::new(block);
    for chunk in txns.chunks(block) {
        if pooled {
            let mut b = pool.take();
            for t in chunk {
                b.push(*t);
            }
            engine.feed_pooled(b);
        } else {
            engine.feed_block(chunk);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn overflowing_streams_are_bit_identical_across_shards_and_stripes(
        raw in prop::collection::vec(arb_step(), 200..700),
        shape in 0usize..3,
        capacity in 1usize..9,
        allow_retry in prop::sample::select(vec![true, true, false]),
        shards in prop::sample::select(vec![1usize, 2, 4, 8]),
        block in prop::sample::select(vec![1usize, 7, 4096]),
        pooled in prop::sample::select(vec![false, true]),
    ) {
        let txns = build_stream(&raw);
        let (head, tail) = txns.split_at(txns.len() / 2);

        let mut reference = board(shape, capacity, allow_retry);
        for t in head {
            reference.on_transaction(t);
        }
        let mid = reference.snapshot();
        for t in tail {
            reference.on_transaction(t);
        }
        let dropped: u64 = reference
            .nodes()
            .map(|n| n.counters().get(NodeCounter::EventsDropped))
            .sum();
        prop_assert!(dropped > 0, "the stream must overflow some buffer");
        prop_assert_eq!(reference.retries_posted() > 0, allow_retry);

        let what = format!("shape {shape}, {shards} shards, block {block}, pooled {pooled}");

        // The split board driven by hand, one transaction at a time per
        // shard, as a layer-by-layer harness drives it.
        let (mut front, mut parts) = board(shape, capacity, allow_retry).split(shards);
        let pool = BlockPool::new(block);
        for chunk in txns.chunks(block) {
            let mut b = pool.take();
            for t in chunk {
                b.push(*t);
            }
            front.filter_block(&mut b);
            for txn in b.iter() {
                for part in parts.iter_mut() {
                    prop_assert!(!part.snoop(txn), "the front end posts every retry");
                }
            }
        }
        let by_hand = MemoriesBoard::assemble(front, parts).unwrap();
        prop_assert_eq!(by_hand.retries_posted(), reference.retries_posted(), "{}", what);
        prop_assert_eq!(
            by_hand.statistics_report(),
            reference.statistics_report(),
            "{}: split board counters diverged",
            what
        );

        let mut engine = EmulationEngine::new(
            board(shape, capacity, allow_retry),
            EngineConfig::parallel(shards).with_batch(block),
        );
        feed(&mut engine, head, block, pooled);
        let got = engine.barrier().unwrap();
        prop_assert_eq!(got.retries_posted, mid.retries_posted, "{}: mid-stream retries", what);
        prop_assert_eq!(&got.nodes, &mid.nodes, "{}: mid-stream counters", what);
        feed(&mut engine, tail, block, pooled);
        let finished = engine.finish().unwrap();

        prop_assert_eq!(finished.retries_posted(), reference.retries_posted(), "{}", what);
        prop_assert_eq!(finished.filter().stats(), reference.filter().stats(), "{}", what);
        prop_assert_eq!(
            finished.statistics_report(),
            reference.statistics_report(),
            "{}: counters diverged",
            what
        );
        for n in 0..reference.node_count() {
            let id = NodeId::new(n as u8);
            prop_assert_eq!(finished.node(id).counters(), reference.node(id).counters());
            prop_assert_eq!(
                finished.node(id).resident_lines(),
                reference.node(id).resident_lines()
            );
            for t in &txns {
                prop_assert_eq!(
                    finished.node(id).probe(t.addr),
                    reference.node(id).probe(t.addr),
                    "{}: node {} directory diverged at {:?}",
                    what,
                    n,
                    t.addr
                );
            }
        }
    }
}
