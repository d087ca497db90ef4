//! Baseline simulators and time models.
//!
//! The paper positions MemorIES against two software baselines:
//!
//! * A **trace-driven C simulator**, "used as one of the methods to
//!   validate the MemorIES design" (§4.1, Table 3). [`CacheSim`] is that
//!   simulator: an independently-implemented functional model of one
//!   emulated cache, driven from trace records. Differential tests check
//!   that the board and the simulator agree *exactly*; the Table 3 bench
//!   measures its wall-clock against the board's real-time model.
//! * **Augmint**, an execution-driven simulator (§4.2, Table 4).
//!   [`AugmintModel`] is a cost model of such a simulator: execution time
//!   is host time multiplied by a calibrated slowdown (~900×, the ratio
//!   implied by every row of Table 4).
//!
//! [`HostTimeModel`] converts instruction counts into host wall-clock
//! seconds (the "MemorIES time" of Tables 3–4: the board runs in real
//! time, so its cost is the host's run time), and [`CSimTimeModel`]
//! extrapolates measured simulator throughput to the paper's huge trace
//! sizes.
//!
//! [`EmulationEngine`] is the sharded replay engine: it fans one
//! transaction stream out to worker threads that each snoop whole
//! coherence domains or address stripes of them, producing a board
//! bit-identical to a serial run. Monitored runs additionally take
//! snapshot barriers every N admitted transactions and return a
//! [`MonitorReport`] (live counter series + engine telemetry, both from
//! `memories-obs`).
//!
//! [`ExecutionBackend`] abstracts over the serial board and the engine
//! as one stream consumer — the execution half of the console's
//! `TransactionSource → ExecutionBackend` pipeline (DESIGN.md §8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augmint;
mod backend;
mod compare;
mod csim;
mod engine;
mod multinode;
mod timing;

pub use augmint::AugmintModel;
pub use backend::ExecutionBackend;
pub use compare::{compare_counts, CompareReport};
pub use csim::{CacheSim, SimCounts};
pub use engine::{EmulationEngine, EngineConfig, EngineMode, MonitorReport};
pub use multinode::MultiNodeSim;
pub use timing::{CSimTimeModel, HostTimeModel};
