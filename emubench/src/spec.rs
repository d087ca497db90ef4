//! The three benchmark workloads: board configurations, host, inputs.
//!
//! Every workload is a closed loop with one client: the next entry call
//! starts only when the previous one has returned. Each fixes its own
//! parallelism so numbers stay comparable across hosts, and every
//! emulated cache starts empty (cold-start transients are part of what
//! the paper measured, Fig 8).

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use memories::{BoardConfig, CacheParams, Error, NodeSlot, ReplacementPolicy};
use memories_bus::{
    BlockPool, BusListener, Geometry, ListenerReaction, ProcId, Transaction, TransactionBlock,
};
use memories_console::{EmulationSession, Shared};
use memories_host::{AccessKind, HostConfig, HostMachine};
use memories_trace::{TraceError, TraceWriter};
use memories_workloads::{
    DssConfig, DssWorkload, OltpConfig, OltpWorkload, RefKind, Workload, WorkloadEvent,
};

/// Bus cycles between replayed trace records (the paper's ~20%
/// utilization point).
pub const CYCLE_SPACING: u64 = 60;

/// Transactions per block wherever the benchmark owns the blocking.
pub const BLOCK: usize = 4096;

/// How a workload reaches the board.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// A live host on its own producer thread (`PipelinedLiveSource`).
    Live,
    /// Streaming replay of in-memory trace bytes (`ChunkedTraceSource`).
    Replay,
}

/// Which synthetic application generates the references.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Oltp,
    Dss,
}

/// The emulated board a workload configures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Board {
    /// Fig 4/8: four cache sizes over the same CPUs, one domain each.
    Sweep,
    /// Fig 8/11: one 64 MB 8-way L3 shared by all eight CPUs.
    SharedL3,
    /// Fig 12: the 2x4p NUMA target at two L3 sizes, one domain each.
    Numa,
}

/// One named benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub drive: Drive,
    pub app: App,
    pub board: Board,
    /// Workload references per run (live) or used to build the trace
    /// (replay).
    pub refs: u64,
    /// Requested engine parallelism.
    pub parallelism: usize,
    /// Counter sampling period in admitted transactions.
    pub sample_every: Option<u64>,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "live_oltp_sweep",
        drive: Drive::Live,
        app: App::Oltp,
        board: Board::Sweep,
        refs: 1_000_000,
        parallelism: 1,
        sample_every: Some(16_384),
    },
    Spec {
        name: "replay_dss_l3",
        drive: Drive::Replay,
        app: App::Dss,
        board: Board::SharedL3,
        refs: 3_000_000,
        parallelism: 2,
        sample_every: None,
    },
    Spec {
        name: "replay_oltp_numa",
        drive: Drive::Replay,
        app: App::Oltp,
        board: Board::Numa,
        refs: 2_000_000,
        parallelism: 2,
        sample_every: Some(8_192),
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The experiments' 8-CPU host: 128 KB 4-way L2s with 128 B lines,
    /// no L1.
    pub fn host(&self) -> HostConfig {
        HostConfig {
            num_cpus: 8,
            inner_cache: None,
            outer_cache: Geometry::new(128 << 10, 4, 128).expect("valid host geometry"),
            ..HostConfig::s7a()
        }
    }

    /// The emulated board this workload configures.
    pub fn board(&self) -> Result<BoardConfig, Error> {
        let all: Vec<ProcId> = (0..8).map(ProcId::new).collect();
        let config = match self.board {
            Board::Sweep => BoardConfig::parallel_configs(
                [2u64 << 20, 8 << 20, 32 << 20, 128 << 20]
                    .iter()
                    .map(|&c| cache(c, 8, 128))
                    .collect::<Result<_, _>>()?,
                all,
            )?,
            Board::SharedL3 => BoardConfig::single_node(cache(64 << 20, 8, 128)?, all)?,
            Board::Numa => {
                let halves = [(0u8..4), (4u8..8)];
                let mut slots = Vec::new();
                for (domain, params) in [cache(4 << 20, 4, 1024)?, cache(16 << 20, 8, 1024)?]
                    .into_iter()
                    .enumerate()
                {
                    for cpus in halves.clone() {
                        slots.push(
                            NodeSlot::new(params, cpus.map(ProcId::new)).in_domain(domain as u8),
                        );
                    }
                }
                BoardConfig::from_slots(slots)?
            }
        };
        Ok(config)
    }

    /// A session over this workload's board (plus the host, for live
    /// runs), at the workload's own parallelism.
    pub fn session(&self) -> Result<EmulationSession, Error> {
        let mut builder = EmulationSession::builder()
            .board(self.board()?)
            .parallelism(self.parallelism);
        if self.drive == Drive::Live {
            builder = builder.host(self.host());
        }
        builder.build()
    }

    /// The reference generator, seeded.
    pub fn workload(&self, seed: u64) -> Box<dyn Workload + Send> {
        match self.app {
            App::Oltp => Box::new(OltpWorkload::new(OltpConfig {
                seed,
                ..OltpConfig::scaled_default()
            })),
            App::Dss => Box::new(DssWorkload::new(DssConfig {
                seed,
                ..DssConfig::scaled_default()
            })),
        }
    }
}

fn cache(capacity: u64, ways: u32, line: u64) -> Result<CacheParams, Error> {
    Ok(CacheParams::builder()
        .capacity(capacity)
        .ways(ways)
        .line_size(line)
        .replacement(ReplacementPolicy::Lru)
        .allow_scaled_down()
        .build()?)
}

/// Applies one workload event to the host; returns whether it was a
/// memory reference.
pub fn apply(machine: &mut HostMachine, event: WorkloadEvent) -> bool {
    match event {
        WorkloadEvent::Ref(r) => {
            let kind = match r.kind {
                RefKind::Load => AccessKind::Load,
                RefKind::Store => AccessKind::Store,
            };
            machine.access(r.cpu, kind, r.addr);
            true
        }
        WorkloadEvent::Instructions { cpu, count } => {
            machine.tick_instructions(cpu, count);
            false
        }
        WorkloadEvent::Dma { write: true, addr } => {
            machine.dma_write(addr);
            false
        }
        WorkloadEvent::Dma { write: false, addr } => {
            machine.dma_read(addr);
            false
        }
    }
}

/// A `Write` over a shared byte vector, so the trace bytes outlive the
/// writer that the bus listener owns.
#[derive(Clone, Default)]
struct SharedBytes(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBytes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bus listener that encodes every delivered block into the trace.
struct Capture {
    writer: TraceWriter<SharedBytes>,
    error: Option<TraceError>,
}

impl BusListener for Capture {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        if self.error.is_none() {
            self.error = self.writer.write_transaction(txn).err();
        }
        ListenerReaction::Proceed
    }

    fn on_block(&mut self, block: &TransactionBlock) -> ListenerReaction {
        if self.error.is_none() {
            self.error = self.writer.write_block(block).err();
        }
        ListenerReaction::Proceed
    }
}

/// Builds the replay input: `refs` references of the seeded workload run
/// through the host, every bus transaction encoded with
/// `TraceWriter::write_block` into memory. Returns the trace bytes.
pub fn build_trace(spec: &Spec, seed: u64) -> Result<Vec<u8>, Error> {
    let bytes = SharedBytes::default();
    let capture = Shared::new(Capture {
        writer: TraceWriter::new(bytes.clone())?,
        error: None,
    });
    let mut machine = HostMachine::new(spec.host()).map_err(Error::host)?;
    machine.attach_listener(Box::new(capture.handle()));
    machine.deliver_batched(BlockPool::new(BLOCK));
    let mut workload = spec.workload(seed);
    let mut done = 0;
    while done < spec.refs {
        if apply(&mut machine, workload.next_event()) {
            done += 1;
        }
    }
    drop(machine.detach_listeners());
    let capture = capture
        .try_unwrap()
        .map_err(|_| ())
        .expect("the benchmark holds the last capture handle after detaching");
    if let Some(e) = capture.error {
        return Err(e.into());
    }
    capture.writer.finish()?;
    let trace = bytes.0.take();
    Ok(trace)
}
