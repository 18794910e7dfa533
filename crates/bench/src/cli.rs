//! The unified command-line surface of the figure binaries.
//!
//! Every binary parses [`Cli`] and understands the shared flags in
//! [`StdOpts`] (`--nodes`, `--scale`, `--seed`, `--threads`, `--steal`,
//! `--window-batch`, `--trace`, `--metrics-json`, `--full`) on top of its
//! own specifics. [`Instruments`] arms every run with the instrument
//! flags (`--sanitize`, `--race`, `--spec`, `--cost`, checkpointing and
//! replay) and reports them at the end of `main`. The
//! [`Exporter`] turns the observability flags into files: when a binary
//! sweeps many configurations, the *first* simulated run is the one that
//! gets traced and exported — enough to inspect one representative run in
//! `chrome://tracing` without multi-gigabyte outputs.

use std::fmt::Write;
use std::path::PathBuf;

use updown_apps::{
    bfs::BfsConfig, ingest::IngestConfig, pagerank::PrConfig, partial_match::PmConfig,
    tc::TcConfig,
};
use updown_sim::{
    DiagKind, MachineConfig, Metrics, ProgramSpec, ProtocolProbe, RaceProbe, ReplayCheck,
    SpecSeverity, TopologyKind, Workload,
};

/// Minimal flag parsing: `--key value` pairs plus positional args.
pub struct Cli {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Cli {
    pub fn parse() -> Cli {
        Self::from_args(std::env::args().skip(1))
    }

    pub fn from_args(args: impl IntoIterator<Item = String>) -> Cli {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                match args.peek() {
                    Some(v) if !v.starts_with("--") => {
                        pairs.push((key.to_string(), args.next().unwrap()));
                    }
                    _ => flags.push(key.to_string()),
                }
            } else {
                positional.push(a);
            }
        }
        Cli {
            positional,
            pairs,
            flags,
        }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// Last `--key value` occurrence parsed as `T`, `None` if absent.
    /// Exits 2 naming the flag when the value does not parse: `--nodes 2x`
    /// must not silently run the default sweep.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.try_opt(key).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`Cli::opt`] that returns the parse error instead of exiting.
    pub fn try_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v.parse().map(Some).map_err(|_| format!("--{key} {v}: invalid value")),
        }
    }

    /// Remove every `--key value` occurrence, returning the last value:
    /// for a binary that gives a shared flag its own meaning.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let v = self.opt(key);
        self.pairs.retain(|(k, _)| k != key);
        v
    }

    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key) || self.pairs.iter().any(|(k, _)| k == key)
    }
}

/// The flags every figure binary shares.
pub struct StdOpts {
    /// `--nodes` / legacy `--max-nodes`: top of the node sweep.
    pub max_nodes: u32,
    /// `--scale` / legacy `--scale-shift`: graph-scale shift vs defaults.
    pub scale_shift: i32,
    /// `--seed`: generator seed.
    pub seed: u64,
    /// `--threads`: simulator worker threads (1 = sequential engine).
    /// Results are byte-identical across values; only wall-clock changes.
    pub threads: u32,
    /// `--steal on|off`: work-stealing shard scheduling (default on).
    /// Scheduling-only; results are byte-identical either way.
    pub steal: bool,
    /// `--window-batch K`: max windows per barrier round under horizon
    /// batching (default 8; 1 disables). Results are byte-identical for
    /// every value.
    pub window_batch: u64,
    /// `--topology`: system-network topology (`uniform`, `polar`,
    /// `torus`, `dragonfly`). Results are byte-identical across thread
    /// counts for every value; `uniform` reproduces the pre-fabric model.
    pub topology: TopologyKind,
    /// `--full`: paper-sized sweep.
    pub full: bool,
    /// `--trace <path>` / `--metrics-json <path>` exporter.
    pub exporter: Exporter,
}

impl StdOpts {
    /// Parse the shared flags with per-binary defaults: `nodes_default`
    /// applies without `--full`, `nodes_full` with it (same for shift).
    pub fn parse(
        cli: &Cli,
        (nodes_default, nodes_full): (u32, u32),
        (shift_default, shift_full): (i32, i32),
    ) -> StdOpts {
        let full = cli.has("full");
        let max_nodes = cli
            .opt("nodes")
            .or_else(|| cli.opt("max-nodes"))
            .unwrap_or(if full { nodes_full } else { nodes_default });
        let scale_shift = cli
            .opt("scale")
            .or_else(|| cli.opt("scale-shift"))
            .unwrap_or(if full { shift_full } else { shift_default });
        StdOpts {
            max_nodes,
            scale_shift,
            seed: cli.get("seed", 0),
            threads: cli.get("threads", 1).max(1),
            steal: parse_on_off(cli, "steal", true),
            window_batch: cli.get::<u64>("window-batch", 8).max(1),
            topology: parse_topology(cli),
            full,
            exporter: Exporter::from_cli(cli),
        }
    }
}

/// Parse an `--key on|off` toggle (also accepts `true|false`/`1|0`; the
/// bare flag means "on"). Exits on anything else — a typo like
/// `--steal of` must not silently pick either setting.
pub fn parse_on_off(cli: &Cli, key: &str, default: bool) -> bool {
    match cli.opt::<String>(key) {
        None => {
            if cli.has(key) {
                true
            } else {
                default
            }
        }
        Some(v) => match v.as_str() {
            "on" | "true" | "1" => true,
            "off" | "false" | "0" => false,
            other => {
                eprintln!("--{key} {other}: expected on|off");
                std::process::exit(2);
            }
        },
    }
}

/// Parse `--topology`, exiting with the list of valid values on a bad
/// one (a silent fallback to the default would quietly benchmark the
/// wrong network).
fn parse_topology(cli: &Cli) -> TopologyKind {
    match cli.opt::<String>("topology") {
        None => TopologyKind::default(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("--topology {s}: {e}");
            std::process::exit(2);
        }),
    }
}

/// An app config (or a bare machine) that [`Instruments::arm`] can arm.
/// `arm` takes the whole config so it can build the `--cost` workload
/// from it after arming the machine.
pub trait HasMachine {
    fn machine(&mut self) -> &mut MachineConfig;
}

impl HasMachine for MachineConfig {
    fn machine(&mut self) -> &mut MachineConfig {
        self
    }
}

macro_rules! has_machine {
    ($($t:ty),*) => {$(impl HasMachine for $t {
        fn machine(&mut self) -> &mut MachineConfig {
            &mut self.machine
        }
    })*};
}

has_machine!(PrConfig, BfsConfig, TcConfig, IngestConfig, PmConfig);

/// The instrument flags of the figure binaries as one switchable layer.
/// Every flag arms every simulated run; simulated results and metrics are
/// unchanged by all of them.
///
/// * `--sanitize`: [`MachineConfig::sanitize`] plus a fresh
///   [`ProtocolProbe`] (docs/udcheck.md).
/// * `--race`: a fresh [`RaceProbe`], the happens-before race detector
///   (docs/udrace.md).
/// * `--spec`: [`MachineConfig::enforce_spec`], reporting into the
///   sanitizer's probe when both are on (docs/udspec.md).
/// * `--cost`: a static `udcost` prediction ([`udcheck::analyze_cost`])
///   seeding [`MachineConfig::cost_hints`]; scheduling-only
///   (docs/analysis.md).
/// * `--checkpoint-every N`: pause, snapshot and round-trip every `N`
///   windows. `--checkpoint <path>` writes the first boundary of the
///   *first* armed run to a file (cadence 8 by default); `--restore <path>`
///   re-drives the first armed run against one, its header validated up
///   front (cadence defaults to the snapshot's window). docs/checkpoint.md.
/// * `--record` captures each run's cross-shard schedule; `--replay` also
///   re-executes every shard in isolation and byte-compares.
pub struct Instruments {
    sanitize: bool,
    race: bool,
    spec: bool,
    cost: bool,
    record: bool,
    replay: Option<ReplayCheck>,
    checkpoint_every: u64,
    /// `(--checkpoint, --restore)`, taken by the first armed run.
    paths: Option<(Option<PathBuf>, Option<PathBuf>)>,
    runs: Vec<Armed>,
}

/// What one armed run reports at the end of `main`.
struct Armed {
    label: String,
    probe: Option<ProtocolProbe>,
    race: Option<RaceProbe>,
    cost: Option<udcheck::CostReport>,
}

impl Instruments {
    /// Parse the instrument flags; a bad `--restore` is a CLI error (exit 2).
    pub fn from_cli(cli: &Cli) -> Instruments {
        Self::try_from_cli(cli).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    fn try_from_cli(cli: &Cli) -> Result<Instruments, String> {
        let write: Option<PathBuf> = cli.try_opt("checkpoint")?;
        let restore: Option<PathBuf> = cli.try_opt("restore")?;
        let mut every: u64 = cli.try_opt("checkpoint-every")?.unwrap_or(0);
        if let Some(path) = &restore {
            let p = path.display();
            let h = updown_sim::snapshot::read_header(path)
                .map_err(|e| format!("--restore {p}: {e}"))?;
            if every == 0 {
                every = h.window.max(1);
            } else if h.window % every != 0 {
                return Err(format!(
                    "--restore {p}: snapshot was taken at window {} which is not a \
                     multiple of --checkpoint-every {every}",
                    h.window
                ));
            }
        }
        if write.is_some() && every == 0 {
            every = 8;
        }
        let replay = cli.has("replay");
        Ok(Instruments {
            sanitize: cli.has("sanitize"),
            race: cli.has("race"),
            spec: cli.has("spec"),
            cost: cli.has("cost"),
            record: cli.has("record") || replay,
            replay: replay.then(ReplayCheck::new),
            checkpoint_every: every,
            paths: Some((write, restore)),
            runs: Vec::new(),
        })
    }

    /// Arm one run: `label` names it in the reports, `spec` is the app's
    /// declared protocol, and `workload` (built only under `--cost`)
    /// describes the run's input for the cost prediction.
    pub fn arm<C: HasMachine>(
        &mut self,
        label: &str,
        spec: &ProgramSpec,
        workload: impl FnOnce(&C) -> Workload,
        cfg: &mut C,
    ) {
        let m = cfg.machine();
        if self.sanitize {
            m.sanitize = true;
            m.probe = Some(ProtocolProbe::new());
        }
        if self.spec {
            m.probe.get_or_insert_with(ProtocolProbe::new);
            m.enforce_spec = Some(spec.clone());
        }
        if self.race {
            m.race = Some(RaceProbe::new());
        }
        if self.checkpoint_every != 0 {
            m.checkpoint_every = self.checkpoint_every;
            if let Some((write, restore)) = self.paths.take() {
                m.checkpoint_path = write;
                m.restore_path = restore;
            }
        }
        m.record |= self.record;
        if let Some(check) = &self.replay {
            m.replay = Some(check.clone());
        }
        let (probe, race) = (m.probe.clone(), m.race.clone());
        let cost = self.cost.then(|| {
            let w = workload(cfg);
            let m = cfg.machine();
            let report = udcheck::analyze_cost(label, spec, &w, m);
            m.cost_hints = report.shard_hints();
            report
        });
        let label = label.to_string();
        self.runs.push(Armed { label, probe, race, cost });
    }

    /// Tail of `main`: print every enabled report to stderr and exit 1 if
    /// any of them is dirty.
    pub fn finish(&self) {
        let mut out = String::new();
        let dirty = self.report(&mut out);
        eprint!("{out}");
        if dirty {
            std::process::exit(1);
        }
    }

    /// Write the sanitizer, race, spec, replay and cost reports, in that
    /// order, for every enabled gate; returns whether any is dirty.
    fn report(&self, out: &mut String) -> bool {
        let n = self.runs.len();
        let diags =
            |r: &Armed| r.probe.as_ref().map(ProtocolProbe::diagnostics).unwrap_or_default();
        let mut dirty = false;
        if self.sanitize {
            let found = self.runs.iter().flat_map(|r| {
                diags(r).into_iter().map(move |d| {
                    format!(
                        "sanitizer[{}] {}: {} — {} (x{}, first at tick {} lane {})",
                        d.kind.as_str(), r.label, d.handler, d.detail, d.count, d.first_tick, d.lane
                    )
                })
            });
            dirty |= gate(out, found, format!("sanitizer: {n} run(s), no protocol violations"));
        }
        if self.race {
            let found = self.runs.iter().flat_map(|r| {
                let rep = r.race.as_ref().map(RaceProbe::snapshot).unwrap_or_default();
                let label = &r.label;
                let sites = rep.sites.iter().map(|s| {
                    format!(
                        "udrace[{label}] '{}' races with '{}': {} (x{}, first at tick {} lane {})",
                        s.current, s.prior, s.detail, s.count, s.first_tick, s.lane
                    )
                });
                let cap = (rep.sites_truncated > 0).then(|| {
                    format!(
                        "udrace[{label}] warning: {} distinct site(s) dropped past the site cap",
                        rep.sites_truncated
                    )
                });
                sites.chain(cap).collect::<Vec<_>>()
            });
            dirty |= gate(out, found, format!("udrace: {n} run(s), no races"));
        }
        if self.spec {
            let found = self.runs.iter().flat_map(|r| {
                diags(r).into_iter().filter(|d| d.kind == DiagKind::SpecViolation).map(move |d| {
                    format!("udspec[{}] {}: {} (x{})", r.label, d.handler, d.detail, d.count)
                })
            });
            dirty |= gate(out, found, format!("udspec: {n} run(s), no spec violations"));
        }
        if let Some(check) = &self.replay {
            let reports = check.reports();
            for r in &reports {
                if r.ok() {
                    let _ = writeln!(
                        out,
                        "replay[{}]: {} shard(s), {} window(s), {} event(s) — byte-identical",
                        r.label, r.shards, r.rounds, r.events
                    );
                }
                for m in &r.mismatches {
                    dirty = true;
                    let _ = writeln!(out, "replay[{}] DIVERGED: {m}", r.label);
                }
            }
            if reports.is_empty() {
                out.push_str("replay: no runs verified\n");
            }
        }
        for c in self.runs.iter().filter_map(|r| r.cost.as_ref()) {
            let _ = writeln!(
                out,
                "udcost[{}]: predicted {:.0} events, {:.0} msgs ({:.0} inter-node), \
                 imbalance {:.2}x; hints {:?}",
                c.app, c.total_events, c.total_msgs, c.inter_node_msgs, c.imbalance, c.shard_hints()
            );
            for f in &c.findings {
                dirty |= f.severity == SpecSeverity::Error;
                let _ = writeln!(out, "udcost[{}] [{}] {}: {}", c.app, f.severity, f.check, f.message);
            }
        }
        dirty
    }
}

/// Write a probe gate's findings, or its clean line when there are none;
/// returns whether there were findings.
fn gate(out: &mut String, found: impl Iterator<Item = String>, clean: String) -> bool {
    let mut dirty = false;
    for line in found {
        dirty = true;
        let _ = writeln!(out, "{line}");
    }
    if !dirty {
        let _ = writeln!(out, "{clean}");
    }
    dirty
}

/// Writes the `--trace` and `--metrics-json` files for the first run of a
/// sweep; subsequent calls are no-ops.
pub struct Exporter {
    trace_path: Option<String>,
    metrics_path: Option<String>,
    exported: bool,
}

impl Exporter {
    pub fn from_cli(cli: &Cli) -> Exporter {
        Exporter {
            trace_path: cli.opt("trace"),
            metrics_path: cli.opt("metrics-json"),
            exported: false,
        }
    }

    /// Should the *next* simulated run record an event trace? True until
    /// the first export happens, and only when `--trace` was given.
    pub fn want_trace(&self) -> bool {
        self.trace_path.is_some() && !self.exported
    }

    /// True when either output flag was given and nothing is written yet.
    pub fn pending(&self) -> bool {
        !self.exported && (self.trace_path.is_some() || self.metrics_path.is_some())
    }

    /// Export the run (first call wins). `trace_json` is the Chrome-trace
    /// JSON from the app result; pass `None` when tracing was off.
    pub fn export(&mut self, label: &str, metrics: &Metrics, trace_json: Option<&str>) {
        if self.exported {
            return;
        }
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, metrics.to_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("  [{label}] metrics JSON -> {path}");
        }
        if let Some(path) = &self.trace_path {
            match trace_json {
                Some(json) => {
                    std::fs::write(path, json)
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                    eprintln!("  [{label}] Chrome trace -> {path} (open in chrome://tracing)");
                }
                None => eprintln!("  [{label}] --trace given but the run recorded no trace"),
            }
        }
        self.exported = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn std_opts_parse_shared_flags() {
        let c = cli(&[
            "pr",
            "--nodes",
            "8",
            "--scale",
            "-2",
            "--seed",
            "7",
            "--trace",
            "/tmp/t.json",
        ]);
        let o = StdOpts::parse(&c, (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 8);
        assert_eq!(o.scale_shift, -2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 1, "sequential engine by default");
        assert!(!o.full);
        assert!(o.exporter.want_trace());
        assert_eq!(c.positional, vec!["pr"]);
    }

    #[test]
    fn std_opts_defaults_follow_full() {
        let o = StdOpts::parse(&cli(&["--full"]), (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 256);
        assert_eq!(o.scale_shift, 3);
        assert!(!o.exporter.want_trace());
    }

    #[test]
    fn threads_flag_parses_and_clamps() {
        let o = StdOpts::parse(&cli(&["--threads", "4"]), (32, 256), (1, 3));
        assert_eq!(o.threads, 4);
        let o = StdOpts::parse(&cli(&["--threads", "0"]), (32, 256), (1, 3));
        assert_eq!(o.threads, 1, "0 clamps to the sequential engine");
    }

    #[test]
    fn legacy_flag_names_still_work() {
        let o = StdOpts::parse(&cli(&["--max-nodes", "4", "--scale-shift", "0"]), (32, 256), (1, 3));
        assert_eq!(o.max_nodes, 4);
        assert_eq!(o.scale_shift, 0);
    }

    #[test]
    fn exporter_writes_first_run_only() {
        let dir = std::env::temp_dir();
        let mp = dir.join("updown_cli_test.metrics.json");
        let mp_s = mp.to_str().unwrap().to_string();
        let mut ex = Exporter {
            trace_path: None,
            metrics_path: Some(mp_s.clone()),
            exported: false,
        };
        assert!(ex.pending());
        let m = sample_metrics(100);
        ex.export("first", &m, None);
        assert!(!ex.pending());
        let m2 = sample_metrics(999);
        ex.export("second", &m2, None);
        let written = std::fs::read_to_string(&mp).unwrap();
        let v = updown_sim::json::JsonValue::parse(&written).unwrap();
        assert_eq!(v.get("final_tick").unwrap().as_u64(), Some(100));
        let _ = std::fs::remove_file(&mp);
    }

    fn sample_metrics(final_tick: u64) -> Metrics {
        Metrics {
            final_tick,
            clock_ghz: 2.0,
            stats: Default::default(),
            total_busy: 0,
            active_lanes: 0,
            total_lanes: 4,
            nodes: vec![],
            hot_lanes: vec![],
            phases: vec![],
            custom: Default::default(),
            fabric: Default::default(),
            sched: Default::default(),
            host_sched: Default::default(),
        }
    }

    #[test]
    fn scheduler_knobs_parse_and_default() {
        let o = StdOpts::parse(&cli(&[]), (32, 256), (1, 3));
        assert!(o.steal, "work-stealing defaults on");
        assert_eq!(o.window_batch, 8, "horizon batching defaults to 8");
        let o = StdOpts::parse(
            &cli(&["--steal", "off", "--window-batch", "1"]),
            (32, 256),
            (1, 3),
        );
        assert!(!o.steal);
        assert_eq!(o.window_batch, 1);
        let o = StdOpts::parse(&cli(&["--window-batch", "0"]), (32, 256), (1, 3));
        assert_eq!(o.window_batch, 1, "0 clamps to batching off");
        let o = StdOpts::parse(&cli(&["--steal", "on"]), (32, 256), (1, 3));
        assert!(o.steal);
    }

    #[test]
    fn unparseable_flag_value_is_an_error_naming_the_flag() {
        let e = cli(&["pr", "--nodes", "2x"]).try_opt::<u32>("nodes").unwrap_err();
        assert!(e.contains("--nodes 2x"), "{e}");
        assert_eq!(cli(&["--nodes", "2"]).try_opt::<u32>("nodes"), Ok(Some(2)));
        assert_eq!(cli(&[]).try_opt::<u32>("nodes"), Ok(None));
    }

    fn instruments(args: &[&str]) -> Instruments {
        Instruments::try_from_cli(&cli(args)).unwrap()
    }

    fn arm_machine(ins: &mut Instruments, label: &str) -> MachineConfig {
        let mut cfg = MachineConfig::small(2, 1, 4);
        ins.arm(label, &ProgramSpec::new(), |_| Workload::new(), &mut cfg);
        cfg
    }

    #[test]
    fn arming_every_flag_sets_the_instrument_fields() {
        let mut ins = instruments(&[
            "--sanitize", "--race", "--spec", "--cost", "--replay",
            "--checkpoint", "ck.snap", "--checkpoint-every", "4",
        ]);
        let cfg = arm_machine(&mut ins, "all");
        assert!(cfg.sanitize && cfg.record);
        assert!(cfg.probe.is_some() && cfg.race.is_some() && cfg.replay.is_some());
        assert!(cfg.enforce_spec.is_some());
        assert_eq!(cfg.checkpoint_every, 4);
        assert_eq!(cfg.checkpoint_path, Some(PathBuf::from("ck.snap")));
        assert_eq!(cfg.restore_path, None);
        let run = &ins.runs[0];
        assert!(run.probe.is_some() && run.race.is_some());
        assert_eq!(cfg.cost_hints, run.cost.as_ref().unwrap().shard_hints());
        // --checkpoint alone defaults the cadence; --record alone records.
        let cfg = arm_machine(&mut instruments(&["--checkpoint", "ck.snap", "--record"]), "x");
        assert_eq!(cfg.checkpoint_every, 8);
        assert!(cfg.record && cfg.replay.is_none() && cfg.probe.is_none());
    }

    #[test]
    fn arming_no_flag_leaves_the_config_untouched() {
        let mut ins = instruments(&[]);
        let cfg = arm_machine(&mut ins, "plain");
        assert_eq!(format!("{cfg:?}"), format!("{:?}", MachineConfig::small(2, 1, 4)));
        let mut out = String::new();
        assert!(!ins.report(&mut out));
        assert_eq!(out, "");
    }

    #[test]
    fn checkpoint_paths_go_to_the_first_armed_run_only() {
        let mut ins = instruments(&["--checkpoint", "ck.snap"]);
        let first = arm_machine(&mut ins, "first");
        let second = arm_machine(&mut ins, "second");
        assert_eq!(first.checkpoint_path, Some(PathBuf::from("ck.snap")));
        assert_eq!(second.checkpoint_path, None);
        assert_eq!(second.checkpoint_every, 8, "the cadence applies to every run");
    }

    #[test]
    fn every_dirty_gate_reports() {
        let mut ins = instruments(&["--spec", "--cost"]);
        // The handler takes one operand and terminates; the spec claims
        // three operands and no terminate edge.
        let mut spec = ProgramSpec::new();
        spec.thread("fixture").event("victim").args(3, 3);
        let mut cfg = MachineConfig::small(2, 1, 4);
        ins.arm("lying", &spec, |_| Workload::new(), &mut cfg);
        let mut eng = updown_sim::Engine::new(cfg);
        let l = udweave::simple_event(&mut eng, "fixture::victim", |ctx| {
            let _ = ctx.arg(0);
            ctx.yield_terminate();
        });
        let dst = updown_sim::EventWord::new(updown_sim::NetworkId(0), l);
        eng.send(dst, [7u64], updown_sim::EventWord::IGNORE);
        eng.run();
        ins.runs[0].cost.as_mut().unwrap().findings.push(updown_sim::SpecFinding {
            severity: SpecSeverity::Error,
            check: "seeded",
            subject: "machine".into(),
            message: "seeded cost error".into(),
        });
        let mut out = String::new();
        assert!(ins.report(&mut out));
        assert!(out.contains("udspec[lying] "), "{out}");
        assert!(out.contains("udcost[lying] [error] seeded: seeded cost error"), "{out}");
    }

    #[test]
    fn topology_flag_parses_and_defaults() {
        let o = StdOpts::parse(&cli(&[]), (32, 256), (1, 3));
        assert_eq!(o.topology, TopologyKind::Uniform);
        let o = StdOpts::parse(&cli(&["--topology", "torus"]), (32, 256), (1, 3));
        assert_eq!(o.topology, TopologyKind::Torus);
        let o = StdOpts::parse(&cli(&["--topology", "PolarStar"]), (32, 256), (1, 3));
        assert_eq!(o.topology, TopologyKind::Polar);
    }
}
