//! The traced run: the same inputs driven through each layer's public
//! functions, with a span around every block-sized call.
//!
//! Two traced passes cover the stack:
//!
//! * the **pipeline pass** drives `Pipeline::feed_pooled` per block from
//!   a source the benchmark owns, over an `EmulationEngine` wrapped in a
//!   backend that opens a span around every engine call (feed, barrier,
//!   finish). It has the same threads as the untraced run, so its wall
//!   time over the untraced wall is the tracing overhead;
//! * the **layer pass** runs the source (workload generation and host,
//!   or trace decode), `BoardFrontEnd::filter_block` and `NodeShard::snoop`
//!   one after another in this thread, one span per block (per shard, for
//!   the snoop).
//!
//! Tag probes and protocol lookups are too short to span one by one;
//! they are timed in isolation over the addresses and
//! (event, state, remote-summary) triples an untimed pass recorded.
//! Every pass ends in a board whose digest must equal the untraced one.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::time::{Duration, Instant};

use memories::{BoardSnapshot, Error, MemoriesBoard, NodeShard, SdramModel};
use memories_bus::{
    Address, BlockPool, BusListener, ListenerReaction, NodeId, PoolStats, PooledBlock, Transaction,
    TransactionBlock,
};
use memories_console::{ExecutionOptions, Pipeline, ProducerStats, Shared, SourceStats};
use memories_host::HostMachine;
use memories_obs::EngineTelemetry;
use memories_protocol::{AccessEvent, RemoteSummary, StateId};
use memories_sim::{EmulationEngine, EngineConfig, ExecutionBackend};
use memories_trace::TraceReader;
use memories_workloads::WorkloadEvent;

use crate::check::digest;
use crate::spec::{apply, Drive, Spec, BLOCK, CYCLE_SPACING};
use crate::stats::{median, percentile};

/// Traced passes of each kind per run; per-pass figures are reported as
/// medians over them.
const PASSES: usize = 3;

/// Block-queue depth of the benchmark's own pipelined producer (the
/// `PipelinedLiveSource` default).
const QUEUE_DEPTH: usize = 4;

/// One recorded span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    pass: usize,
    start: Duration,
    end: Duration,
    /// Transactions (or other units) the call handled.
    items: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Spans kept in memory for the whole run; written out at the end.
struct SpanLog {
    origin: Instant,
    pass: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

type Log = Rc<RefCell<SpanLog>>;

/// Runs `f` inside a span named `name` that handled `items` units.
fn span<R>(log: &Log, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
    let id = {
        let mut l = log.borrow_mut();
        let id = l.spans.len();
        let (parent, pass, start) = (l.open.last().copied(), l.pass, l.origin.elapsed());
        l.spans.push(Span {
            name,
            parent,
            pass,
            start,
            end: start,
            items,
        });
        l.open.push(id);
        id
    };
    let out = f();
    let mut l = log.borrow_mut();
    l.spans[id].end = l.origin.elapsed();
    l.open.pop();
    out
}

impl SpanLog {
    fn of<'a>(&'a self, name: &'a str, pass: usize) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.pass == pass)
    }

    fn busy(&self, name: &str, pass: usize) -> f64 {
        self.of(name, pass).map(Span::secs).sum()
    }

    fn items(&self, name: &str, pass: usize) -> u64 {
        self.of(name, pass).map(|s| s.items).sum()
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.pass,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.items
            );
        }
        std::fs::write(path, out)
    }
}

/// An engine backend that spans every call the pipeline makes into it.
struct TracedBackend {
    inner: EmulationEngine,
    log: Log,
}

impl ExecutionBackend for TracedBackend {
    fn feed(&mut self, txn: &Transaction) {
        span(&self.log, "sim.engine.feed", 1, || self.inner.feed(txn));
    }

    fn feed_block(&mut self, txns: &[Transaction]) {
        let n = txns.len() as u64;
        span(&self.log, "sim.engine.feed", n, || {
            self.inner.feed_block(txns)
        });
    }

    fn feed_pooled(&mut self, block: PooledBlock) {
        let n = block.len() as u64;
        span(&self.log, "sim.engine.feed", n, || {
            self.inner.feed_pooled(block)
        });
    }

    fn admitted(&self) -> u64 {
        self.inner.admitted()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn barrier(&mut self) -> Result<BoardSnapshot, Error> {
        span(&self.log, "sim.engine.barrier", 1, || self.inner.barrier())
    }

    fn finish(self: Box<Self>) -> Result<(MemoriesBoard, EngineTelemetry), Error> {
        let TracedBackend { inner, log } = *self;
        span(&log, "sim.engine.finish", 1, || {
            ExecutionBackend::finish(Box::new(inner))
        })
    }
}

/// Host bus listener that packs transactions into pooled blocks, the
/// way the pipelined producer does, and hands each full block on.
struct Packer<F: FnMut(PooledBlock)> {
    pool: BlockPool,
    block: PooledBlock,
    ship: F,
}

impl<F: FnMut(PooledBlock)> Packer<F> {
    fn new(pool: BlockPool, ship: F) -> Self {
        Packer {
            block: pool.take(),
            pool,
            ship,
        }
    }

    fn flush(&mut self) {
        if !self.block.is_empty() {
            let partial = std::mem::replace(&mut self.block, self.pool.take());
            (self.ship)(partial);
        }
    }
}

impl<F: FnMut(PooledBlock)> BusListener for Packer<F> {
    fn on_transaction(&mut self, txn: &Transaction) -> ListenerReaction {
        self.block.push(*txn);
        if self.block.is_full() {
            let full = std::mem::replace(&mut self.block, self.pool.take());
            (self.ship)(full);
        }
        ListenerReaction::Proceed
    }
}

/// What one pipeline pass measured.
struct PipelinePass {
    wall: f64,
    digest: u64,
    telemetry: EngineTelemetry,
    pool: PoolStats,
}

/// The pipeline pass: `Pipeline::feed_pooled` per block over a traced
/// engine, with the same thread layout as the untraced entry call.
fn pipeline_pass(
    spec: &Spec,
    seed: u64,
    trace: Option<&[u8]>,
    log: &Log,
) -> Result<PipelinePass, Error> {
    let options = ExecutionOptions::new().sample_every(spec.sample_every);
    let workload = spec.workload(seed);
    let started = Instant::now();
    let config = if spec.parallelism <= 1 {
        EngineConfig::serial()
    } else {
        EngineConfig::parallel(spec.parallelism)
    };
    let engine = EmulationEngine::new(MemoriesBoard::new(spec.board()?)?, config);
    let mut pipeline = Pipeline::new(
        Box::new(TracedBackend {
            inner: engine,
            log: Rc::clone(log),
        }),
        &options,
    );
    let feed = |pipeline: &mut Pipeline, block: PooledBlock| {
        let n = block.len() as u64;
        span(log, "console.pipeline.feed_pooled", n, || {
            pipeline.feed_pooled(block)
        });
    };
    let (stats, pool) = match spec.drive {
        // The producer's pool reaches the telemetry through
        // `Pipeline::finish`; a replay source's pool is counted here.
        Drive::Live => (
            pipelined_producer(spec, workload, |block| feed(&mut pipeline, block))?,
            PoolStats::default(),
        ),
        Drive::Replay => {
            let mut reader = TraceReader::new(trace.expect("replay workloads carry a trace"))?;
            let pool = BlockPool::new(BLOCK);
            let mut n = 0u64;
            loop {
                let mut block = pool.take();
                let got = reader.read_block(&mut block, n, CYCLE_SPACING)?;
                if got == 0 {
                    break;
                }
                n += got as u64;
                feed(&mut pipeline, block);
            }
            let source = SourceStats {
                units: n,
                ..SourceStats::default()
            };
            (source, pool.stats())
        }
    };
    let run = pipeline.finish(stats)?;
    let wall = started.elapsed().as_secs_f64();
    Ok(PipelinePass {
        wall,
        digest: digest(&run.board),
        telemetry: run.telemetry,
        pool,
    })
}

/// The benchmark's own pipelined producer: host simulation on a scoped
/// thread shipping pooled blocks over a bounded queue, the calling
/// thread handing each block to `consume`. Returns the source statistics,
/// producer stalls and pool counters included.
fn pipelined_producer(
    spec: &Spec,
    mut workload: Box<dyn memories_workloads::Workload + Send>,
    mut consume: impl FnMut(PooledBlock),
) -> Result<SourceStats, Error> {
    let host = spec.host();
    let refs = spec.refs;
    let pool = BlockPool::new(BLOCK);
    let (tx, rx) = sync_channel::<PooledBlock>(QUEUE_DEPTH);
    let produced = std::thread::scope(|scope| {
        let rx = rx;
        let producer = scope.spawn(move || -> Result<SourceStats, Error> {
            let mut machine = HostMachine::new(host).map_err(Error::host)?;
            let shipper = Shipper {
                tx,
                blocks: 0,
                stalls: 0,
            };
            let shipper = Rc::new(RefCell::new(shipper));
            let ship = Rc::clone(&shipper);
            let packer = Shared::new(Packer::new(pool.clone(), move |b| {
                ship.borrow_mut().ship(b);
            }));
            machine.attach_listener(Box::new(packer.handle()));
            let mut done = 0;
            while done < refs {
                if apply(&mut machine, workload.next_event()) {
                    done += 1;
                }
            }
            let machine_stats = machine.stats();
            let bus = machine.bus().stats().clone();
            drop(machine.detach_listeners());
            packer.with_mut(Packer::flush);
            drop(packer);
            let shipper = shipper.borrow();
            Ok(SourceStats {
                units: done,
                machine: Some(machine_stats),
                bus: Some(bus),
                producer: Some(ProducerStats {
                    blocks: shipper.blocks,
                    stalls: shipper.stalls,
                    pool: pool.stats(),
                }),
            })
        });
        while let Ok(block) = rx.recv() {
            consume(block);
        }
        producer.join()
    });
    produced.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Ships blocks over the bounded queue, counting full-queue stalls.
struct Shipper {
    tx: SyncSender<PooledBlock>,
    blocks: u64,
    stalls: u64,
}

impl Shipper {
    fn ship(&mut self, block: PooledBlock) {
        self.blocks += 1;
        if let Err(TrySendError::Full(block)) = self.tx.try_send(block) {
            self.stalls += 1;
            // A closed queue means the consumer is gone; the run fails there.
            let _ = self.tx.send(block);
        }
    }
}

/// Drives the workload's input through its source layer one block at a
/// time, spanning each source call when `log` is given, and hands every
/// raw block to `sink`. Returns the workload references driven (0 for
/// replay).
fn drive_source(
    spec: &Spec,
    seed: u64,
    trace: Option<&[u8]>,
    log: Option<&Log>,
    mut sink: impl FnMut(&mut TransactionBlock),
) -> Result<u64, Error> {
    let timed = |name: &'static str, items: u64, f: &mut dyn FnMut()| match log {
        Some(log) => span(log, name, items, f),
        None => f(),
    };
    let pool = BlockPool::new(BLOCK);
    match spec.drive {
        Drive::Live => {
            let full: Rc<RefCell<Vec<PooledBlock>>> = Rc::default();
            let shelf = Rc::clone(&full);
            let packer = Shared::new(Packer::new(pool, move |b| shelf.borrow_mut().push(b)));
            let mut machine = HostMachine::new(spec.host()).map_err(Error::host)?;
            machine.attach_listener(Box::new(packer.handle()));
            let mut workload = spec.workload(seed);
            let mut events: Vec<WorkloadEvent> = Vec::new();
            let mut done = 0;
            while done < spec.refs {
                let want = (spec.refs - done).min(BLOCK as u64);
                let mut got = 0;
                timed("workloads.next_event", want, &mut || {
                    events.clear();
                    while got < want {
                        let event = workload.next_event();
                        got += u64::from(matches!(event, WorkloadEvent::Ref(_)));
                        events.push(event);
                    }
                });
                done += got;
                timed("host.apply", got, &mut || {
                    for event in events.drain(..) {
                        apply(&mut machine, event);
                    }
                });
                for mut block in full.borrow_mut().drain(..) {
                    sink(&mut block);
                }
            }
            drop(machine.detach_listeners());
            packer.with_mut(Packer::flush);
            for mut block in full.borrow_mut().drain(..) {
                sink(&mut block);
            }
            Ok(done)
        }
        Drive::Replay => {
            let mut reader = TraceReader::new(trace.expect("replay workloads carry a trace"))?;
            let mut block = pool.take();
            let mut n = 0u64;
            loop {
                let mut result = Ok(0);
                timed("trace_io.read_block", BLOCK as u64, &mut || {
                    result = reader.read_block(&mut block, n, CYCLE_SPACING);
                });
                let got = result?;
                if got == 0 {
                    return Ok(0);
                }
                n += got as u64;
                sink(&mut block);
            }
        }
    }
}

/// What one layer pass measured.
struct LayerPass {
    digest: u64,
    refs: u64,
    shards: usize,
    board: MemoriesBoard,
}

/// Addresses and (event, state, remote) triples recorded for the
/// isolated probe and lookup timings.
#[derive(Default)]
struct Recorded {
    addrs: Vec<Address>,
    triples: Vec<(NodeId, AccessEvent, StateId, RemoteSummary)>,
}

/// The layer pass: source, front-end filter and per-shard snoop run one
/// after another in this thread. With `record`, no spans are taken and
/// the pre-snoop lookup triples of every admitted transaction are kept.
fn layer_pass(
    spec: &Spec,
    seed: u64,
    trace: Option<&[u8]>,
    log: Option<&Log>,
    mut record: Option<&mut Recorded>,
) -> Result<LayerPass, Error> {
    let (mut front, mut shards) = MemoriesBoard::new(spec.board()?)?.split(spec.parallelism);
    let shard_count = shards.len();
    let mut overflowed: Vec<bool> = Vec::with_capacity(BLOCK);
    let refs = drive_source(spec, seed, trace, log, |block| {
        match log {
            Some(log) => span(log, "core.filter.filter_block", block.len() as u64, || {
                front.filter_block(block)
            }),
            None => front.filter_block(block),
        }
        overflowed.clear();
        overflowed.resize(block.len(), false);
        if let Some(rec) = record.as_deref_mut() {
            // Per transaction, so every triple sees pre-snoop state.
            for (txn, flag) in block.iter().zip(overflowed.iter_mut()) {
                rec.addrs.push(txn.addr);
                for shard in &shards {
                    record_triples(&front, shard, txn, &mut rec.triples);
                }
                for shard in shards.iter_mut() {
                    *flag |= shard.snoop(txn);
                }
            }
        } else {
            for shard in shards.iter_mut() {
                let mut snoop = || {
                    for (txn, flag) in block.iter().zip(overflowed.iter_mut()) {
                        *flag |= shard.snoop(txn);
                    }
                };
                match log {
                    Some(log) => span(log, "core.shard.snoop", block.len() as u64, snoop),
                    None => snoop(),
                }
            }
        }
        front.record_overflows(overflowed.iter().filter(|&&o| o).count() as u64);
    })?;
    let board = MemoriesBoard::assemble(front, shards)?;
    Ok(LayerPass {
        digest: digest(&board),
        refs,
        shards: shard_count,
        board,
    })
}

/// The lookup inputs one shard's controllers would use for `txn`,
/// computed from their current (pre-snoop) directory state.
fn record_triples(
    front: &memories::BoardFrontEnd,
    shard: &NodeShard,
    txn: &Transaction,
    out: &mut Vec<(NodeId, AccessEvent, StateId, RemoteSummary)>,
) {
    let partition = front.filter().partition();
    for id in shard.node_ids() {
        let Some(event) = partition.event_for(id, txn) else {
            continue;
        };
        let node = shard.node(id).expect("shard owns its listed nodes");
        let remote = shard
            .node_ids()
            .filter(|&o| o != id && partition.domain(o) == partition.domain(id))
            .map(|o| {
                shard
                    .node(o)
                    .expect("shard owns its listed nodes")
                    .summarize(txn.addr)
            })
            .fold(RemoteSummary::None, RemoteSummary::max);
        out.push((id, event, node.probe(txn.addr), remote));
    }
}

/// Nanoseconds per call of `f` over `n` calls, median of five timings.
fn ns_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// Everything the traced run measured, before it is named for output.
pub struct Traced {
    /// Per-layer metrics present on every workload, in output order.
    pub common: Vec<(&'static str, &'static str, f64)>,
    /// Metrics of layers that run only on some workloads.
    pub specific: Vec<(&'static str, &'static str, f64)>,
    /// Digests of every traced pass (each must equal the untraced one).
    pub digests: Vec<u64>,
}

/// Counters read from the untraced run's public result.
pub struct Untraced {
    pub wall: f64,
    pub telemetry: EngineTelemetry,
    pub retries_posted: u64,
    pub demand_miss_ratio: f64,
}

/// Runs the traced passes and the isolated probe and lookup timings,
/// and writes every span to `spans_path`.
pub fn run(
    spec: &Spec,
    seed: u64,
    trace: Option<&[u8]>,
    untraced: &Untraced,
    spans_path: &std::path::Path,
) -> Result<Traced, Error> {
    let log: Log = Rc::new(RefCell::new(SpanLog {
        origin: Instant::now(),
        pass: 0,
        spans: Vec::new(),
        open: Vec::new(),
    }));
    let mut digests = Vec::new();
    let mut pipes = Vec::new();
    let mut layers = Vec::new();
    for pass in 0..PASSES {
        log.borrow_mut().pass = pass;
        let p = pipeline_pass(spec, seed, trace, &log)?;
        digests.push(p.digest);
        pipes.push(p);
        let l = layer_pass(spec, seed, trace, Some(&log), None)?;
        digests.push(l.digest);
        layers.push(l);
    }
    let mut recorded = Recorded::default();
    let rec = layer_pass(spec, seed, trace, None, Some(&mut recorded))?;
    digests.push(rec.digest);
    log.borrow().write(spans_path).map_err(Error::other)?;

    let l = log.borrow();
    let model = SdramModel::table3_default();
    let seen = untraced.telemetry.seen;
    let emulated = model.seconds_for(seen);
    let per_pass = |f: &dyn Fn(usize) -> f64| {
        let mut v: Vec<f64> = (0..PASSES).map(f).collect();
        median(&mut v)
    };

    let feed_us = l.durations_us("console.pipeline.feed_pooled");
    let engine_feed = per_pass(&|p| l.busy("sim.engine.feed", p));
    let engine_fed = l.items("sim.engine.feed", 0).max(1);
    let shards_busy: Vec<Vec<f64>> = pipes
        .iter()
        .enumerate()
        .map(|(pass, p)| {
            if p.telemetry.shards.is_empty() {
                // Serial engine: the one shard is the calling thread,
                // busy for exactly the engine's feed calls.
                vec![l.busy("sim.engine.feed", pass)]
            } else {
                p.telemetry
                    .shards
                    .iter()
                    .map(|s| s.busy.as_secs_f64())
                    .collect()
            }
        })
        .collect();
    let busy_max = |b: &Vec<f64>| b.iter().copied().fold(0.0, f64::max);
    let shard_busy_max = {
        let mut v: Vec<f64> = shards_busy.iter().map(busy_max).collect();
        median(&mut v)
    };
    let imbalance = {
        let mut v: Vec<f64> = shards_busy
            .iter()
            .map(|b| busy_max(b) / (b.iter().sum::<f64>() / b.len() as f64))
            .collect();
        median(&mut v)
    };
    let finish = per_pass(&|p| l.busy("sim.engine.finish", p));
    let pool = {
        let t = &pipes[0].telemetry;
        let hits = t.pool_hits + pipes[0].pool.hits;
        let fresh = t.pool_allocs + pipes[0].pool.fresh;
        hits as f64 / (hits + fresh).max(1) as f64
    };
    let filter = per_pass(&|p| l.busy("core.filter.filter_block", p));
    // The slowest shard's snoop time: per pass, snoop spans alternate
    // over shards in shard order within each block.
    let shard_count = layers[0].shards;
    let snoop = per_pass(&|p| {
        let mut per_shard = vec![0.0; shard_count];
        for (i, s) in l.of("core.shard.snoop", p).enumerate() {
            per_shard[i % shard_count] += s.secs();
        }
        per_shard.into_iter().fold(0.0, f64::max)
    });
    let admitted = untraced.telemetry.admitted.max(1);

    let board = &layers[0].board;
    let probe_ns = {
        let nodes: Vec<_> = board.nodes().collect();
        let n = recorded.addrs.len() * nodes.len();
        ns_per_call(n, || {
            for node in &nodes {
                for &addr in &recorded.addrs {
                    black_box(node.probe(black_box(addr)));
                }
            }
        })
    };
    let lookup_ns = {
        let triples = &recorded.triples;
        let tables: Vec<_> = board.nodes().map(|n| n.protocol()).collect();
        ns_per_call(triples.len(), || {
            for &(id, event, state, remote) in triples {
                let table = tables[id.index()];
                black_box(table.lookup(black_box(event), black_box(state), black_box(remote)));
            }
        })
    };
    let traced_wall = {
        let mut v: Vec<f64> = pipes.iter().map(|p| p.wall).collect();
        median(&mut v)
    };

    let common = vec![
        (
            "console.pipeline.feed_p50_us",
            "us",
            percentile(&feed_us, 0.50),
        ),
        (
            "console.pipeline.feed_p99_us",
            "us",
            percentile(&feed_us, 0.99),
        ),
        ("bus.block.pool_hit_ratio", "ratio", pool),
        ("core.filter.busy_s", "s", filter),
        (
            "core.filter.admit_ratio",
            "ratio",
            untraced.telemetry.admitted as f64 / seen.max(1) as f64,
        ),
        ("core.shard.snoop_s", "s", snoop),
        (
            "core.shard.snoop_ns_per_txn",
            "ns",
            snoop * 1e9 / admitted as f64,
        ),
        ("core.shard.realtime_ratio", "ratio", emulated / snoop),
        ("core.tagstore.probe_ns", "ns", probe_ns),
        ("protocol.lookup_ns", "ns", lookup_ns),
        (
            "sim.engine.feed_ns_per_txn",
            "ns",
            engine_feed * 1e9 / engine_fed as f64,
        ),
        ("sim.engine.shards", "count", shards_busy[0].len() as f64),
        ("sim.engine.shard_busy_max_s", "s", shard_busy_max),
        ("sim.engine.shard_imbalance", "ratio", imbalance),
        ("sim.engine.finish_s", "s", finish),
        (
            "board.retries_posted",
            "count",
            untraced.retries_posted as f64,
        ),
        (
            "board.demand_miss_ratio",
            "ratio",
            untraced.demand_miss_ratio,
        ),
        (
            "bench.tracing_overhead",
            "ratio",
            traced_wall / untraced.wall,
        ),
    ];

    let mut specific = Vec::new();
    match spec.drive {
        Drive::Live => {
            let workloads = per_pass(&|p| l.busy("workloads.next_event", p));
            let host = per_pass(&|p| l.busy("host.apply", p));
            let t = &untraced.telemetry;
            specific.extend([
                ("workloads.busy_s", "s", workloads),
                ("workloads.realtime_ratio", "ratio", emulated / workloads),
                ("host.busy_s", "s", host),
                ("host.realtime_ratio", "ratio", emulated / host),
                (
                    "host.bus_txn_per_ref",
                    "ratio",
                    seen as f64 / layers[0].refs.max(1) as f64,
                ),
                (
                    "console.pipeline.producer_stalls",
                    "count",
                    t.producer_stalls as f64,
                ),
                (
                    "console.pipeline.consumer_stalls",
                    "count",
                    t.consumer_stalls as f64,
                ),
            ]);
        }
        Drive::Replay => {
            let decode = per_pass(&|p| l.busy("trace_io.read_block", p));
            specific.extend([
                ("trace_io.decode_s", "s", decode),
                ("trace_io.realtime_ratio", "ratio", emulated / decode),
            ]);
        }
    }
    if spec.sample_every.is_some() {
        let barrier_us = l.durations_us("sim.engine.barrier");
        specific.extend([
            (
                "sim.engine.barrier_p50_us",
                "us",
                percentile(&barrier_us, 0.50),
            ),
            (
                "sim.engine.barrier_p99_us",
                "us",
                percentile(&barrier_us, 0.99),
            ),
        ]);
    }
    Ok(Traced {
        common,
        specific,
        digests,
    })
}
