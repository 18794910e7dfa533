#![forbid(unsafe_code)]
//! Shared plumbing for the figure-regeneration binaries: tiny CLI
//! parsing, the [`Instruments`] layer (sanitize/race/spec/cost/checkpoint/
//! replay), exporters, and wall-clock timing.
//!
//! The machine shapes and the graph menu standing in for the paper's
//! inputs moved to [`updown_apps::harness`] so that analysis tools
//! (`udcost --figure9`) can reconstruct bench inputs without depending on
//! this crate; they are re-exported here so bench binaries and external
//! callers keep their spelling.

pub mod cli;
pub mod timing;

pub use cli::{Cli, Exporter, Instruments, StdOpts};
pub use updown_apps::harness::{
    bench_machine, bench_machine_threads, bench_machine_topo, graph_menu, graph_menu_seeded,
    node_sweep, prepared, prepared_undirected, BENCH_ACCELS, BENCH_LANES,
};

use updown_sim::MachineConfig;

impl StdOpts {
    /// The bench machine with `nodes` nodes and the machine flags applied.
    pub fn machine(&self, nodes: u32) -> MachineConfig {
        let mut cfg = bench_machine(nodes);
        self.apply(&mut cfg);
        cfg
    }

    /// Apply the machine flags to `cfg`: `--threads` workers on the
    /// `--topology` network with the `--steal`/`--window-batch` knobs.
    pub fn apply(&self, cfg: &mut MachineConfig) {
        cfg.threads = self.threads;
        cfg.net.topology = self.topology;
        cfg.steal = self.steal;
        cfg.window_batch = self.window_batch;
    }
}
