//! Output checks: a board digest and the serial references it is
//! compared against.

use memories::{Error, MemoriesBoard, NodeCounter};
use memories_bus::{BusListener as _, BusOp, NodeId};
use memories_console::Shared;
use memories_host::HostMachine;
use memories_protocol::standard;
use memories_sim::{compare_counts, CacheSim};
use memories_trace::TraceReader;

use crate::spec::{apply, Spec, CYCLE_SPACING};

/// FNV-1a over every counter a run produces: each node's counter bank,
/// retries posted, the filter statistics and the global counters.
pub fn digest(board: &MemoriesBoard) -> u64 {
    let mut words = Vec::new();
    for i in 0..board.node_count() {
        let counters = board.node_stats(NodeId::new(i as u8));
        words.extend(NodeCounter::ALL.iter().map(|&c| counters.counters().get(c)));
    }
    words.push(board.retries_posted());
    let f = board.filter().stats();
    words.extend([
        f.seen,
        f.control_filtered,
        f.retries_filtered,
        f.dma_filtered,
        f.window_filtered,
        f.forwarded,
    ]);
    let g = board.global();
    words.push(g.transactions());
    words.extend(BusOp::ALL.iter().map(|&op| g.count(op)));
    words.push(g.first_cycle().unwrap_or(u64::MAX));
    words.push(g.last_cycle());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The serial reference for a live workload: a plain board attached to
/// the host bus with per-transaction delivery.
pub fn live_reference(spec: &Spec, seed: u64) -> Result<MemoriesBoard, Error> {
    let board = Shared::new(MemoriesBoard::new(spec.board()?)?);
    let mut machine = HostMachine::new(spec.host()).map_err(Error::host)?;
    machine.attach_listener(Box::new(board.handle()));
    let mut workload = spec.workload(seed);
    let mut done = 0;
    while done < spec.refs {
        if apply(&mut machine, workload.next_event()) {
            done += 1;
        }
    }
    drop(machine.detach_listeners());
    Ok(board
        .try_unwrap()
        .map_err(|_| ())
        .expect("the reference holds the last board handle after detaching"))
}

/// The serial reference for a replay workload: the trace decoded record
/// by record into a plain board. For the single-node L3 workload the
/// node's counters are also compared against the independent
/// trace-driven simulator (the paper's §4.1 validation); a divergence is
/// returned as an error.
pub fn replay_reference(spec: &Spec, trace: &[u8]) -> Result<MemoriesBoard, Error> {
    let config = spec.board()?;
    let mut sim =
        (config.slots.len() == 1).then(|| CacheSim::new(config.slots[0].params, standard::mesi()));
    let mut board = MemoriesBoard::new(config)?;
    for (n, rec) in TraceReader::new(trace)?.enumerate() {
        let rec = rec?;
        let n = n as u64;
        board.on_transaction(&rec.to_transaction(n, n * CYCLE_SPACING));
        if let Some(sim) = &mut sim {
            sim.step(&rec);
        }
    }
    if let Some(sim) = sim {
        let report = compare_counts(board.node(NodeId::new(0)).counters(), sim.counts());
        if !report.matches() {
            return Err(Error::other(Mismatch(format!(
                "board node 0 vs trace-driven simulator: {report}"
            ))));
        }
    }
    Ok(board)
}

/// A failed output check.
#[derive(Debug)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Mismatch {}
