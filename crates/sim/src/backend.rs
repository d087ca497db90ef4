//! The execution half of the unified pipeline: anything that can consume
//! a bus-transaction stream and hand back a finished board.
//!
//! The board has exactly one ingest path — every 6xx transaction flows
//! through the same snoop/filter/update pipeline regardless of what the
//! console is doing (§3, §4). [`ExecutionBackend`] is that path as a
//! trait: a [`TransactionSource`] (live host drive, streaming trace
//! replay, synthetic generators — see `memories-console`) pushes
//! transactions into a backend, and optional pipeline stages (counter
//! sampling, windowed miss-ratio profiling) act through
//! [`ExecutionBackend::barrier`], which every backend implements as an
//! exact snapshot of the stream position so far. Because the barrier is
//! the *only* mid-run observation primitive, every stage works at any
//! parallelism — a profiled run no longer has anything serial about it.
//!
//! Two implementations ship here:
//!
//! * [`MemoriesBoard`] — the serial board itself; `barrier` is
//!   [`MemoriesBoard::snapshot`].
//! * [`EmulationEngine`] — serial or sharded-parallel; `barrier` is a
//!   snapshot barrier (flush the partial batch, collect per-shard counter
//!   reports and sum them per node).
//!
//! Both produce bit-identical counters for the same stream, which the
//! `memories-verify` differential fuzzer cross-checks continuously.

use memories::{BoardSnapshot, Error, MemoriesBoard};
use memories_bus::{BusListener as _, PooledBlock, Transaction};
use memories_obs::EngineTelemetry;

use crate::engine::EmulationEngine;

/// A consumer of one bus-transaction stream.
///
/// Feed transactions in stream order with [`feed`](Self::feed); observe
/// the exact mid-stream state with [`barrier`](Self::barrier); call
/// [`finish`](Self::finish) to get the board (and the backend's own
/// telemetry) back. Implementations must guarantee that `barrier` and
/// `finish` reflect precisely the transactions fed so far — the
/// bit-identity contract the differential suite enforces.
pub trait ExecutionBackend {
    /// Feeds one bus transaction, in stream order.
    fn feed(&mut self, txn: &Transaction);

    /// Feeds a whole block of transactions, in stream order.
    ///
    /// Semantically identical to calling [`feed`](Self::feed) once per
    /// transaction (which is the default implementation); block-native
    /// backends override it to amortise dispatch over the block.
    fn feed_block(&mut self, txns: &[Transaction]) {
        for txn in txns {
            self.feed(txn);
        }
    }

    /// Feeds an already-pooled block, letting the backend re-use its
    /// buffer (e.g. broadcast it to shard workers without copying).
    ///
    /// Defaults to [`feed_block`](Self::feed_block) over the block's
    /// contents; results are bit-identical either way.
    fn feed_pooled(&mut self, block: PooledBlock) {
        self.feed_block(block.as_slice());
    }

    /// Transactions the address filter has admitted so far — the x-axis
    /// of "sample every N admitted transactions".
    fn admitted(&self) -> u64;

    /// Number of independent snoop units (1 for serial backends).
    fn shard_count(&self) -> usize;

    /// Takes an exact counter snapshot of the stream position so far.
    ///
    /// For parallel backends this is a snapshot barrier: any buffered
    /// work is flushed and per-shard reports are merged, so the result is
    /// bit-identical to what a serial board would show at the same
    /// position.
    ///
    /// # Errors
    ///
    /// Backend-specific; neither backend in this crate fails today.
    fn barrier(&mut self) -> Result<BoardSnapshot, Error>;

    /// Flushes everything, tears the backend down, and returns the final
    /// board plus the backend's own performance telemetry.
    ///
    /// # Errors
    ///
    /// Backend-specific; see [`EmulationEngine::finish`].
    fn finish(self: Box<Self>) -> Result<(MemoriesBoard, EngineTelemetry), Error>;
}

impl ExecutionBackend for MemoriesBoard {
    fn feed(&mut self, txn: &Transaction) {
        self.on_transaction(txn);
    }

    fn feed_block(&mut self, txns: &[Transaction]) {
        self.observe_block(txns);
    }

    fn admitted(&self) -> u64 {
        self.filter().stats().forwarded
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn barrier(&mut self) -> Result<BoardSnapshot, Error> {
        Ok(self.snapshot())
    }

    fn finish(self: Box<Self>) -> Result<(MemoriesBoard, EngineTelemetry), Error> {
        let stats = *self.filter().stats();
        let telemetry = EngineTelemetry {
            seen: stats.seen,
            admitted: stats.forwarded,
            ..EngineTelemetry::default()
        };
        Ok((*self, telemetry))
    }
}

impl ExecutionBackend for EmulationEngine {
    fn feed(&mut self, txn: &Transaction) {
        EmulationEngine::feed(self, txn);
    }

    fn feed_block(&mut self, txns: &[Transaction]) {
        EmulationEngine::feed_block(self, txns);
    }

    fn feed_pooled(&mut self, block: PooledBlock) {
        EmulationEngine::feed_pooled(self, block);
    }

    fn admitted(&self) -> u64 {
        EmulationEngine::admitted(self)
    }

    fn shard_count(&self) -> usize {
        EmulationEngine::shard_count(self)
    }

    fn barrier(&mut self) -> Result<BoardSnapshot, Error> {
        EmulationEngine::barrier(self)
    }

    fn finish(self: Box<Self>) -> Result<(MemoriesBoard, EngineTelemetry), Error> {
        let (board, report) = EmulationEngine::finish_monitored(*self)?;
        Ok((board, report.telemetry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use memories::{BoardConfig, CacheParams};
    use memories_bus::{Address, BusOp, ProcId, SnoopResponse};

    fn board() -> MemoriesBoard {
        let params = CacheParams::builder()
            .capacity(16 << 10)
            .ways(2)
            .line_size(128)
            .allow_scaled_down()
            .build()
            .unwrap();
        let cfg =
            BoardConfig::parallel_configs(vec![params, params], (0..8).map(ProcId::new).collect())
                .unwrap();
        MemoriesBoard::new(cfg).unwrap()
    }

    fn txn(i: u64) -> Transaction {
        Transaction::new(
            i,
            i * 60,
            ProcId::new((i % 8) as u8),
            if i.is_multiple_of(3) {
                BusOp::Rwitm
            } else {
                BusOp::Read
            },
            Address::new((i % 32) * 128),
            SnoopResponse::Null,
        )
    }

    /// Every backend, driven through the trait alone, must agree with the
    /// plain serial board bit for bit — mid-stream and at the end.
    #[test]
    fn backends_agree_through_the_trait() {
        let mut reference = board();
        for i in 0..2_000 {
            reference.on_transaction(&txn(i));
        }
        let want = reference.snapshot();

        let backends: Vec<Box<dyn ExecutionBackend>> = vec![
            Box::new(board()),
            Box::new(EmulationEngine::new(board(), EngineConfig::serial())),
            Box::new(EmulationEngine::new(
                board(),
                EngineConfig::parallel(2).with_batch(128),
            )),
        ];
        for mut backend in backends {
            for i in 0..1_000 {
                backend.feed(&txn(i));
            }
            let mid = backend.barrier().unwrap();
            assert!(mid.admitted() <= want.admitted());
            for i in 1_000..2_000 {
                backend.feed(&txn(i));
            }
            let shards = backend.shard_count();
            let (final_board, telemetry) = backend.finish().unwrap();
            assert_eq!(
                final_board.statistics_report(),
                reference.statistics_report(),
                "backend with {shards} shards diverged"
            );
            assert_eq!(telemetry.admitted, want.admitted());
        }
    }
}
