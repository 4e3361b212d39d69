//! `domactl` — command-line front end for the library.
//!
//! ```text
//! domactl cost     --schedule "r1 r1 w2 r2" [--algo sa|da|opt|all]
//!                  [--model sc|mc] [--cc 0.25] [--cd 1.0] [--t 2]
//!                  [--verbose]
//! domactl stats    --schedule "r1 r1 w2 r2"
//! domactl simulate --schedule "..." [--algo <entrant>] [--n 6]
//! domactl obs      --schedule "..." [--algo <entrant>] [--n 6]
//!                  [--format json|table] [--events 256]
//! domactl generate --workload uniform|zipf|hotspot|chaotic|mobile|append-only
//!                  [--n 6] [--len 50] [--seed 0] [--read-fraction 0.7]
//! domactl tournament [--n 6] [--len 40] [--seed 7] [--out BENCH_tournament.json]
//!                  [--format table|json]
//! domactl scenario <name|path|all|list> [--format table|json]
//!                  [--diff <baseline.json>]
//! domactl cluster  <scenario|workload|all> [--nodes N] [--transport tcp|uds]
//!                  [--entrant <entrant>] [--n 6] [--len 40] [--seed 7]
//!                  [--read-fraction 0.7]
//! domactl trace    <scenario|workload> [--format table|chrome] [--top 10]
//!                  [--events N] [--algo <entrant>] [--n 6] [--len 50]
//!                  [--seed 0] [--read-fraction 0.7]
//! domactl obs diff <a.json> <b.json> [--scenario NAME]
//! domactl repro    [<experiment>|all] [--fast]
//! ```
//!
//! Schedules use the paper's notation: whitespace-separated `r<i>` / `w<i>`
//! tokens. `--file <path>` reads the schedule from a trace file instead
//! (the format `doma_workload::trace::write_trace` emits: `#` comments,
//! blank lines and any line wrapping are fine).
//! `<entrant>` is any name of the roster ([`doma_protocol::Entrant`]):
//! `sa`, `da`, `convergent`, `write-invalidate`, `cost-oblivious` or
//! `mobile-mirror`, always in its canonical deployment. Each command
//! accepts only the flags it reads ([`accepted_flags`]); any other flag
//! is a usage error that names the accepted ones.
//! `<scenario|workload>` is a builtin scenario name, a scenario `.toml`
//! path, or an ad-hoc workload kind (the `generate --workload` list).
//! `repro` regenerates every figure and bound of the paper (the roster
//! is `doma_analysis::experiments`); `--fast` shrinks grids and batteries
//! for a smoke run, and the default settings match EXPERIMENTS.md.

use doma_algorithms::{DynamicAllocation, OfflineOptimal, StaticAllocation};
use doma_core::{
    run_offline, run_online, schedule_stats, CostModel, ProcSet, ProcessorId, RunOutcome, Schedule,
};
use doma_protocol::Entrant;
use doma_scenario::{Scenario, WorkloadSpec};
use doma_workload::trace::read_trace;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed command-line options: positional command + `--key value` flags
/// (`--verbose` and `--fast` are bare flags). A flag given twice is an
/// error.
#[derive(Debug, Default)]
struct Opts {
    command: String,
    /// The first positional operand after the command (the scenario
    /// name or path for `domactl scenario …`, the trace target, the
    /// `diff` subcommand of `obs`, …).
    target: Option<String>,
    /// Further positional operands, for the commands that take them
    /// (`obs diff <a> <b>`).
    extra: Vec<String>,
    flags: BTreeMap<String, String>,
    verbose: bool,
    fast: bool,
}

/// How many positional operands a command accepts after its name.
fn positional_arity(command: &str) -> usize {
    match command {
        "scenario" | "trace" | "cluster" | "repro" => 1,
        "obs" => 3, // bare `obs`, or `obs diff <a> <b>`
        _ => 0,
    }
}

/// The flags a command reads, space-separated (`target` tells `obs diff`
/// from `obs`); `None` for an unknown command, which `main` reports.
fn accepted_flags(command: &str, target: Option<&str>) -> Option<&'static str> {
    Some(match (command, target) {
        ("cost", _) => "schedule file algo model cc cd t n verbose",
        ("stats", _) => "schedule file",
        ("simulate", _) => "schedule file algo n",
        ("obs", Some("diff")) => "scenario",
        ("obs", _) => "schedule file algo n format events",
        ("generate", _) => "workload n len seed read-fraction",
        ("tournament", _) => "n len seed out format",
        ("scenario", _) => "format diff",
        ("cluster", _) => "nodes transport entrant n len seed read-fraction",
        ("trace", _) => "format top events algo n len seed read-fraction",
        ("repro", _) => "fast",
        _ => return None,
    })
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let bare = match arg.as_str() {
            "--verbose" => Some(&mut opts.verbose),
            "--fast" => Some(&mut opts.fast),
            _ => None,
        };
        if let Some(flag) = bare {
            if std::mem::replace(flag, true) {
                return Err(format!("flag {arg} given twice"));
            }
        } else if let Some(key) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if opts.flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        } else if arg.starts_with('-') {
            return Err(format!("unexpected argument '{arg}'"));
        } else if opts.command.is_empty() {
            opts.command = arg.clone();
        } else {
            positionals.push(arg.clone());
        }
    }
    if opts.command.is_empty() {
        return Err(
            "missing command (cost | stats | simulate | obs | generate | tournament | scenario | cluster | trace | repro)"
                .to_string(),
        );
    }
    let arity = positional_arity(&opts.command);
    if positionals.len() > arity {
        return Err(format!("unexpected argument '{}'", positionals[arity]));
    }
    let mut it = positionals.into_iter();
    opts.target = it.next();
    opts.extra = it.collect();
    if let Some(accepted) = accepted_flags(&opts.command, opts.target.as_deref()) {
        let bare = [("verbose", opts.verbose), ("fast", opts.fast)];
        let bare = bare.into_iter().filter_map(|(flag, on)| on.then_some(flag));
        let mut given = opts.flags.keys().map(String::as_str).chain(bare);
        if let Some(unknown) = given.find(|f| !accepted.split(' ').any(|a| a == *f)) {
            return Err(format!(
                "{} does not take --{unknown} (accepted: --{})",
                opts.command,
                accepted.replace(' ', ", --")
            ));
        }
    }
    Ok(opts)
}

impl Opts {
    fn get(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
        }
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer '{v}'")),
        }
    }

    /// The roster entrant named by `--<key>`.
    fn entrant(&self, key: &str, default: &str) -> Result<Entrant, String> {
        Entrant::from_name(&self.get(key, default)).map_err(|e| format!("--{key}: {e}"))
    }

    fn schedule(&self) -> Result<Schedule, String> {
        if let Some(path) = self.flags.get("file") {
            let file = std::fs::File::open(path).map_err(|e| format!("--file {path}: {e}"))?;
            read_trace(file).map_err(|e| format!("--file {path}: {e}"))
        } else if let Some(s) = self.flags.get("schedule") {
            s.parse::<Schedule>().map_err(|e| e.to_string())
        } else {
            Err("need --schedule \"r1 w2 ...\" or --file <path>".to_string())
        }
    }

    fn model(&self) -> Result<CostModel, String> {
        let cc = self.get_f64("cc", 0.25)?;
        let cd = self.get_f64("cd", 1.0)?;
        match self.get("model", "sc").as_str() {
            "sc" => CostModel::stationary(cc, cd).map_err(|e| e.to_string()),
            "mc" => CostModel::mobile(cc, cd).map_err(|e| e.to_string()),
            other => Err(format!("--model must be sc or mc, got '{other}'")),
        }
    }
}

fn universe_for(schedule: &Schedule, opts: &Opts) -> Result<usize, String> {
    let min = schedule.min_processors().max(3);
    let n = opts.get_usize("n", min)?;
    if n < min {
        return Err(format!(
            "--n {n} too small; the schedule uses {min} processors"
        ));
    }
    Ok(n)
}

fn print_outcome(name: &str, outcome: &RunOutcome, model: &CostModel, verbose: bool) {
    let t = &outcome.costed.total;
    println!(
        "{name:>4}: cost {:.3}  ({} control, {} data, {} I/O)  final scheme {}",
        outcome.costed.total_cost(model),
        t.control,
        t.data,
        t.io,
        outcome.costed.final_scheme
    );
    if verbose {
        for pr in &outcome.costed.per_request {
            println!(
                "        {}  scheme {}  cost {}",
                pr.step, pr.scheme, pr.cost
            );
        }
    }
}

fn cmd_cost(opts: &Opts) -> Result<(), String> {
    let schedule = opts.schedule()?;
    let model = opts.model()?;
    let t = opts.get_usize("t", 2)?;
    let n = universe_for(&schedule, opts)?;
    if t < 2 || t >= n {
        return Err(format!("need 2 <= t < n (t={t}, n={n})"));
    }
    let algo = opts.get("algo", "all");
    let q: ProcSet = (0..t).collect();
    let f: ProcSet = (0..t - 1).collect();
    let p = ProcessorId::new(t - 1);
    println!(
        "schedule: {schedule}\nmodel: {} cc={} cd={} cio={}  t={t}  n={n}  initial scheme {q}",
        model.environment(),
        model.cc(),
        model.cd(),
        model.cio()
    );
    let err = |e: doma_core::DomaError| e.to_string();
    if algo == "sa" || algo == "all" {
        let mut sa = StaticAllocation::new(q).map_err(err)?;
        print_outcome(
            "SA",
            &run_online(&mut sa, &schedule).map_err(err)?,
            &model,
            opts.verbose,
        );
    }
    if algo == "da" || algo == "all" {
        let mut da = DynamicAllocation::new(f, p).map_err(err)?;
        print_outcome(
            "DA",
            &run_online(&mut da, &schedule).map_err(err)?,
            &model,
            opts.verbose,
        );
    }
    if algo == "opt" || algo == "all" {
        let opt = OfflineOptimal::new(n, t, q, model).map_err(err)?;
        print_outcome(
            "OPT",
            &run_offline(&opt, &schedule).map_err(err)?,
            &model,
            opts.verbose,
        );
    }
    if !["sa", "da", "opt", "all"].contains(&algo.as_str()) {
        return Err(format!("--algo must be sa, da, opt or all, got '{algo}'"));
    }
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let schedule = opts.schedule()?;
    let stats = schedule_stats(&schedule);
    println!(
        "{} requests ({} reads / {} writes), read fraction {:.2}",
        schedule.len(),
        schedule.read_count(),
        schedule.write_count(),
        stats.read_fraction
    );
    println!(
        "mean read-run length {:.2}; mean distinct readers per write interval {:.2}",
        stats.mean_read_run(),
        stats.mean_readers_per_interval
    );
    println!("active processors: {}", stats.active_processors());
    for (i, a) in stats.per_processor.iter().enumerate() {
        if a.total() > 0 {
            println!("  P{i}: {} reads, {} writes", a.reads, a.writes);
        }
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let algo = opts.entrant("algo", "da")?;
    let err = |e: doma_core::DomaError| e.to_string();
    let mut sim = algo.sim(n).map_err(err)?;
    let report = sim.execute(&schedule).map_err(err)?;
    println!(
        "{} protocol on {n} simulated nodes: {} control msgs, {} data msgs, {} I/Os",
        algo.as_str().to_uppercase(),
        report.cost.control,
        report.cost.data,
        report.cost.io
    );
    println!(
        "final replica set {}; {} reads completed, mean latency {:.1} ticks",
        report.final_holders, report.reads_completed, report.mean_read_latency
    );
    Ok(())
}

/// Builds the protocol sim the way `simulate` does, but with the
/// observability bundle attached, executes the schedule, and prints the
/// snapshot — stable JSON by default (byte-identical across runs of the
/// same inputs), or the aligned metric table plus event log with
/// `--format table`.
fn cmd_obs(opts: &Opts) -> Result<(), String> {
    match opts.target.as_deref() {
        Some("diff") => return cmd_obs_diff(opts),
        Some(other) => return Err(format!("unexpected argument '{other}'")),
        None => {}
    }
    print!("{}", obs_output(opts)?);
    Ok(())
}

/// What `domactl obs` prints.
fn obs_output(opts: &Opts) -> Result<String, String> {
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let events = opts.get_usize("events", 256)?;
    let err = |e: doma_core::DomaError| e.to_string();
    let mut sim = opts.entrant("algo", "da")?.sim(n).map_err(err)?;
    let obs = sim.attach_obs(events);
    sim.attach_tracer();
    sim.execute(&schedule).map_err(err)?;
    sim.obs_flush();
    match opts.get("format", "json").as_str() {
        "json" => Ok(format!("{}\n", obs.snapshot_json())),
        "table" => {
            let mut out = format!("{}\n", obs.metrics().snapshot());
            let rendered = obs.events().render();
            if !rendered.is_empty() {
                out.push_str(&rendered);
                out.push('\n');
            }
            Ok(out)
        }
        other => Err(format!("--format must be json or table, got '{other}'")),
    }
}

/// `domactl obs diff <a.json> <b.json>` — structural diff of two obs
/// snapshots (raw, or wrapped in scenario reports / report arrays;
/// `--scenario NAME` picks one report out of an array). Exits nonzero
/// when the snapshots differ, so scripts can gate on it.
fn cmd_obs_diff(opts: &Opts) -> Result<(), String> {
    let [path_a, path_b] = opts.extra.as_slice() else {
        return Err("usage: domactl obs diff <a.json> <b.json> [--scenario NAME]".to_string());
    };
    let text_a =
        std::fs::read_to_string(path_a).map_err(|e| format!("cannot read {path_a}: {e}"))?;
    let text_b =
        std::fs::read_to_string(path_b).map_err(|e| format!("cannot read {path_b}: {e}"))?;
    let which = opts.flags.get("scenario").map(String::as_str);
    let diff = doma_analysis::obsdiff::diff_texts(&text_a, &text_b, which)?;
    print!("{}", doma_analysis::obsdiff::render(&diff));
    if diff.is_clean() {
        Ok(())
    } else {
        Err(format!("{path_a} and {path_b} differ"))
    }
}

/// `domactl trace <scenario|workload>` — run the target with per-request
/// causal spans enabled and print either the Chrome trace-event JSON
/// (`--format chrome`, perfetto-loadable, byte-stable for a fixed seed)
/// or the slowest-K critical-path report (`--format table`, default).
/// An ad-hoc workload runs under `--algo` (`--n`, `--len`, `--seed`,
/// `--read-fraction` shape it).
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    print!("{}", trace_output(opts)?);
    Ok(())
}

/// What `domactl trace` prints (violations go to stderr as warnings).
fn trace_output(opts: &Opts) -> Result<String, String> {
    use doma_obs::trace::{chrome_trace, slowest_report, TraceModel};
    let target = opts.target.as_deref().ok_or_else(|| {
        format!(
            "need a target: domactl trace <scenario|workload>\n{}",
            targets_help()
        )
    })?;
    let format = opts.get("format", "table");
    if !["table", "chrome"].contains(&format.as_str()) {
        return Err(format!("--format must be table or chrome, got '{format}'"));
    }
    let top = opts.get_usize("top", 10)?;
    let mut scenario = resolve_target(opts, target, "algo", "da", 50, 0)?;
    scenario.events = opts.get_usize("events", scenario.events)?;
    let (report, obs) =
        doma_scenario::run_traced(&scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
    for violation in &report.violations {
        eprintln!("warning: {}: {violation}", report.scenario);
    }
    let model = TraceModel::from_obs(&obs);

    if format == "chrome" {
        return Ok(format!("{}\n", chrome_trace(&model)));
    }
    let mut out = format!(
        "trace: scenario {} ({} entrant, {} requests, cost {} control / {} data / {} I/O)\n",
        report.scenario,
        report.entrant,
        report.requests,
        report.cost.control,
        report.cost.data,
        report.cost.io
    );
    if model.truncated() {
        out.push_str(&format!(
            "  WARNING: event log truncated ({} dropped, {} orphan exits) — raise --events\n",
            model.dropped_events, model.orphan_exits
        ));
    }
    out.push_str(&slowest_report(&model, top));
    Ok(out)
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let n = opts.get_usize("n", 6)?;
    let len = opts.get_usize("len", 50)?;
    let seed = opts.get_usize("seed", 0)? as u64;
    let rf = opts.get_f64("read-fraction", 0.7)?;
    let kind = opts.get("workload", "uniform");
    let schedule =
        doma_scenario::runner::generate_phase(&adhoc_workload(&kind, n, rf)?, n, len, seed)
            .map_err(|e| e.to_string())?;
    println!("{schedule}");
    Ok(())
}

/// The ad-hoc workloads `generate`, `trace` and `cluster` accept, named
/// as scenario files name them ([`WorkloadSpec::name`]): every generator
/// kind shaped for `n` processors, with the parameters the CLI does not
/// expose fixed.
fn adhoc_workloads(n: usize, rf: f64) -> [WorkloadSpec; 6] {
    [
        WorkloadSpec::Uniform { read_fraction: rf },
        WorkloadSpec::Zipf {
            theta: 1.0,
            read_fraction: rf,
        },
        WorkloadSpec::Hotspot {
            phase_len: 20,
            hot_prob: rf,
        },
        WorkloadSpec::Chaotic { redraw_every: 8 },
        WorkloadSpec::Mobile {
            cells: n / 2,
            callers: n.saturating_sub(n / 2 + 1),
            move_prob: 0.3,
            read_fraction: rf,
        },
        WorkloadSpec::AppendOnly {
            generators: 2,
            reads_per_write: 3.0,
        },
    ]
}

/// The names [`adhoc_workloads`] answers to.
fn workload_names() -> Vec<&'static str> {
    adhoc_workloads(0, 0.0)
        .iter()
        .map(WorkloadSpec::name)
        .collect()
}

fn adhoc_workload(kind: &str, n: usize, rf: f64) -> Result<WorkloadSpec, String> {
    adhoc_workloads(n, rf)
        .into_iter()
        .find(|w| w.name() == kind)
        .ok_or_else(|| {
            format!(
                "unknown --workload '{kind}' (expected one of: {})",
                workload_names().join(", ")
            )
        })
}

fn targets_help() -> String {
    format!(
        "builtins: {}\nworkloads: {}",
        doma_scenario::builtin::names().join(", "),
        workload_names().join(", ")
    )
}

/// Loads a scenario: a `.toml` file by path, or a builtin by name.
fn load_scenario(target: &str) -> Result<Scenario, String> {
    if target.ends_with(".toml") || target.contains('/') {
        let text =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        Scenario::parse(&text).map_err(|e| format!("{target}: {e}"))
    } else {
        doma_scenario::builtin::load(target).map_err(|e| e.to_string())
    }
}

/// Every builtin scenario, in roster order.
fn builtins() -> Result<Vec<Scenario>, String> {
    doma_scenario::builtin::names()
        .into_iter()
        .map(|name| doma_scenario::builtin::load(name).map_err(|e| format!("{name}: {e}")))
        .collect()
}

/// The one way `trace` and `cluster` name a run: anything
/// [`load_scenario`] takes, or an ad-hoc workload kind synthesized into a
/// one-phase scenario so every harness behind the CLI needs only one
/// input shape. `entrant_flag` and the defaults apply to the ad-hoc case
/// only; the draft round-trips through the scenario text so the flags get
/// the validation a scenario file gets.
fn resolve_target(
    opts: &Opts,
    target: &str,
    entrant_flag: &str,
    default_entrant: &str,
    default_len: usize,
    default_seed: usize,
) -> Result<Scenario, String> {
    if !workload_names().contains(&target) {
        return load_scenario(target)
            .map_err(|e| format!("{e}\nworkloads: {}", workload_names().join(", ")));
    }
    let n = opts.get_usize("n", 6)?;
    let workload = adhoc_workload(target, n, opts.get_f64("read-fraction", 0.7)?)?;
    let draft = Scenario {
        name: format!("adhoc-{}", workload.name()),
        description: "ad-hoc workload".to_string(),
        n,
        seed: opts.get_usize("seed", default_seed)? as u64,
        entrant: opts.entrant(entrant_flag, default_entrant)?,
        events: 65_536,
        model: CostModel::stationary(0.25, 1.0).map_err(|e| e.to_string())?,
        phases: vec![doma_scenario::Phase {
            name: "main".to_string(),
            len: opts.get_usize("len", default_len)?,
            workload,
        }],
        faults: Vec::new(),
        partitions: Vec::new(),
        expect: doma_scenario::Expect::default(),
        golden: None,
    };
    Scenario::parse(&draft.to_toml()).map_err(|e| e.to_string())
}

/// The algorithm tournament: every first-class allocator × every workload
/// × the `(cc, cd)` model grid, measured against OPT through the protocol
/// sim with the obs registry cross-checked. Prints the standings table
/// (or the JSON export with `--format json`); `--out <path>` additionally
/// writes the byte-stable JSON artifact.
fn cmd_tournament(opts: &Opts) -> Result<(), String> {
    let defaults = doma_analysis::tournament::TournamentSpec::default();
    let spec = doma_analysis::tournament::TournamentSpec {
        n: opts.get_usize("n", defaults.n)?,
        len: opts.get_usize("len", defaults.len)?,
        seed: opts.get_usize("seed", defaults.seed as usize)? as u64,
    };
    let cells = doma_analysis::tournament::run_tournament(&spec).map_err(|e| e.to_string())?;
    let json = doma_analysis::tournament::render_json(&spec, &cells);
    match opts.get("format", "table").as_str() {
        "table" => {
            println!(
                "tournament: n={} len={} seed={} ({} cells)",
                spec.n,
                spec.len,
                spec.seed,
                cells.len()
            );
            print!("{}", doma_analysis::tournament::render_table(&cells));
        }
        "json" => print!("{json}"),
        other => return Err(format!("--format must be table or json, got '{other}'")),
    }
    if let Some(path) = opts.flags.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok(())
}

/// `domactl cluster <scenario|workload|all>` — spawn N protocol nodes
/// over real sockets, drive the scenario's schedule through them, and
/// cross-check the run against the deterministic sim twin: same seed,
/// same request schedule, therefore (if the transport layer is correct)
/// the same allocation-scheme trajectory and the same obs cost totals.
/// `all` runs every builtin and reports a fault-bearing one as skipped
/// (the real runtime is failure-free). `--nodes N` resizes the scenario
/// before it is validated, so a size its file could not declare is an
/// error naming the broken rule.
fn cmd_cluster(opts: &Opts) -> Result<(), String> {
    let target = opts.target.as_deref().ok_or_else(|| {
        format!(
            "need a target: domactl cluster <scenario|workload|all> [--nodes N] [--transport tcp|uds]\n{}",
            targets_help()
        )
    })?;
    let transport = opts.get("transport", "uds");
    let kind = doma_net::TransportKind::parse(&transport)
        .ok_or_else(|| format!("--transport must be tcp or uds, got '{transport}'"))?;
    let scenarios = match target {
        "all" => builtins()?,
        _ => vec![resolve_target(opts, target, "entrant", "sa", 40, 7)?],
    };
    let mut diverged = 0;
    for mut scenario in scenarios {
        if target == "all" && !scenario.is_failure_free() {
            println!(
                "cluster {}: skipped (scenario injects faults; the real runtime is failure-free)",
                scenario.name
            );
            continue;
        }
        if opts.flags.contains_key("nodes") {
            let n = opts.get_usize("nodes", scenario.n)?;
            scenario.n = n;
            scenario = Scenario::parse(&scenario.to_toml())
                .map_err(|e| format!("{} --nodes {n}: {}", scenario.name, e.message))?;
        }
        match doma_analysis::cluster::run_twin(&scenario, kind) {
            Ok(report) => {
                print!("{}", report.render());
                diverged += usize::from(!report.matches());
            }
            Err(e) if e.starts_with("sockets unavailable") => {
                println!("notice: {e}; cluster run skipped");
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    }
    match diverged {
        0 => Ok(()),
        _ => Err(format!(
            "cluster diverged from the sim twin in {diverged} scenario(s)"
        )),
    }
}

/// Runs a declarative scenario (builtin by name, or a `.toml` file by
/// path) through the protocol simulator with obs attached, audits its
/// expected-invariant block, and prints the report. `scenario list`
/// prints the builtin roster; `scenario all` replays every builtin and
/// fails if any expectation (golden digest included) is violated.
fn cmd_scenario(opts: &Opts) -> Result<(), String> {
    let target = opts.target.clone().ok_or_else(|| {
        format!(
            "need a scenario: domactl scenario <name|path|all|list>\nbuiltins: {}",
            doma_scenario::builtin::names().join(", ")
        )
    })?;
    let format = opts.get("format", "table");
    if !["table", "json"].contains(&format.as_str()) {
        return Err(format!("--format must be table or json, got '{format}'"));
    }
    if target == "list" {
        for s in builtins()? {
            println!("{:<22} {}", s.name, s.description);
        }
        return Ok(());
    }
    let scenarios = match target.as_str() {
        "all" => builtins()?,
        _ => vec![load_scenario(&target)?],
    };

    let baseline = match opts.flags.get("diff") {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("--diff {path}: {e}"))?)
        }
        None => None,
    };
    let mut failed = Vec::new();
    let mut json_rows = Vec::new();
    let mut diffs = Vec::new();
    for scenario in &scenarios {
        let report = doma_scenario::run(scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
        match format.as_str() {
            "json" => json_rows.push(report.render_json()),
            _ => print!("{}", report.render_table()),
        }
        if let Some(baseline_text) = &baseline {
            let d = doma_analysis::obsdiff::diff_texts(
                baseline_text,
                &report.snapshot_json,
                Some(&report.scenario),
            )
            .map_err(|e| format!("--diff {}: {e}", report.scenario))?;
            diffs.push(format!(
                "{}: {}",
                report.scenario,
                doma_analysis::obsdiff::render(&d)
            ));
        }
        if !report.passed() {
            failed.push(format!(
                "{}: {}",
                report.scenario,
                report.violations.join("; ")
            ));
        }
    }
    if format == "json" {
        println!("[\n  {}\n]", json_rows.join(",\n  "));
    }
    for diff in &diffs {
        print!("{diff}");
    }
    if !failed.is_empty() {
        return Err(format!(
            "scenario expectations failed:\n  {}",
            failed.join("\n  ")
        ));
    }
    Ok(())
}

/// `domactl repro [<experiment>|all] [--fast]` — runs the experiment
/// roster and prints the reproduction document (`repro all` is
/// `repro_full_output.md`, `repro all --fast` is `tests/golden/repro_fast.md`).
fn cmd_repro(opts: &Opts) -> Result<(), String> {
    let which = opts.target.as_deref().unwrap_or("all");
    let reports = doma_analysis::experiments::run(which, opts.fast).map_err(|e| e.to_string())?;
    print!(
        "{}",
        doma_analysis::experiments::render(&reports, opts.fast)
    );
    Ok(())
}

fn usage() -> String {
    format!(
        "usage: domactl <cost|stats|simulate|obs|generate|tournament|scenario|cluster|trace|repro> [--flags]\n\
         try: domactl cost --schedule \"r1 r1 r2 w2 r2 r2 r2\" --cc 0.5 --cd 1.0\n\
         try: domactl simulate --schedule \"r2 w3 r2\" --algo <{}>\n\
         try: domactl scenario list\n\
         try: domactl cluster append-only-6-2 --nodes 3 --transport uds\n\
         try: domactl trace append-only-6-2 --format chrome",
        Entrant::ALL.map(|e| e.as_str()).join("|")
    )
}

fn dispatch(opts: &Opts) -> Result<(), String> {
    match opts.command.as_str() {
        "cost" => cmd_cost(opts),
        "stats" => cmd_stats(opts),
        "simulate" => cmd_simulate(opts),
        "obs" => cmd_obs(opts),
        "generate" => cmd_generate(opts),
        "tournament" => cmd_tournament(opts),
        "scenario" => cmd_scenario(opts),
        "cluster" => cmd_cluster(opts),
        "trace" => cmd_trace(opts),
        "repro" => cmd_repro(opts),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|opts| dispatch(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_accepts_flags_and_command() {
        let o = parse_args(&args(&["cost", "--cc", "0.5", "--verbose", "--algo", "da"])).unwrap();
        assert_eq!(o.command, "cost");
        assert!(o.verbose);
        assert_eq!(o.get("algo", "all"), "da");
        assert_eq!(o.get_f64("cc", 0.0).unwrap(), 0.5);
        assert_eq!(o.get_f64("cd", 1.25).unwrap(), 1.25);
        // `repro` takes at most one experiment name and one bare `--fast`.
        for (argv, which, fast) in [
            (&["repro"][..], None, false),
            (&["repro", "--fast"], None, true),
            (&["repro", "fig1"], Some("fig1"), false),
            (&["repro", "--fast", "fig1"], Some("fig1"), true),
        ] {
            let o = parse_args(&args(argv)).unwrap();
            assert_eq!((o.target.as_deref(), o.fast), (which, fast), "{argv:?}");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["cost", "--cc"])).is_err());
        // Positional arity is per-command: `scenario` takes one operand,
        // `cost` takes none, `obs diff` takes three.
        let o = parse_args(&args(&["scenario", "flash-crowd"])).unwrap();
        assert_eq!(o.target.as_deref(), Some("flash-crowd"));
        assert!(parse_args(&args(&["cost", "stray", "stray2"])).is_err());
        assert!(parse_args(&args(&["cost", "stray"])).is_err());
        assert!(parse_args(&args(&["scenario", "a", "b"])).is_err());
        assert!(parse_args(&args(&["trace", "a", "b"])).is_err());
        let o = parse_args(&args(&["cost", "--cc", "abc"])).unwrap();
        assert!(o.get_f64("cc", 0.0).is_err());
        // A flag the command never reads is an error naming the accepted
        // ones; an unknown command is left to `main`, which prints usage.
        for (argv, flag) in [
            (
                &["tournament", "--sead", "3"][..],
                "--sead (accepted: --n, --len, --seed,",
            ),
            (&["obs", "--schedule", "r1", "--formt", "table"], "--formt"),
            (&["cost", "--schedule", "r1", "--alog", "sa"], "--alog"),
            (&["stats", "--schedule", "r1", "--verbose"], "--verbose"),
            (&["obs", "diff", "a", "b", "--schedule", "r1"], "--schedule"),
        ] {
            let e = parse_args(&args(argv)).unwrap_err();
            assert!(e.contains(flag) && e.contains("(accepted: --"), "{e}");
        }
        assert!(parse_args(&args(&["bogus", "--x", "1"])).is_ok());
        // A misspelt or repeated flag, a second operand or a short option
        // is a usage error, never a silently different run.
        for (argv, error) in [
            (&["repro", "--fsat"][..], "flag --fsat needs a value"),
            (&["repro", "--fsat", "x"], "repro does not take --fsat"),
            (&["repro", "fig1", "fig2"], "unexpected argument 'fig2'"),
            (
                &["repro", "fig1", "--fast", "--fast"],
                "flag --fast given twice",
            ),
            (&["repro", "-f"], "unexpected argument '-f'"),
            (
                &["cost", "--verbose", "--verbose"],
                "flag --verbose given twice",
            ),
            (
                &["tournament", "--n", "5", "--n", "6"],
                "flag --n given twice",
            ),
            (&["cost", "--fast"], "cost does not take --fast"),
        ] {
            let e = parse_args(&args(argv)).unwrap_err();
            assert!(e.contains(error), "{argv:?}: {e}");
        }
    }

    /// Every command line in this file's usage block parses: the block
    /// and [`accepted_flags`] cannot drift apart.
    #[test]
    fn every_documented_usage_line_parses() {
        let mut lines: Vec<String> = Vec::new();
        for l in include_str!("domactl.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"))
            .skip_while(|l| !l.contains("```text"))
            .skip(1)
            .take_while(|l| !l.contains("```"))
        {
            match l.trim_start().strip_prefix("domactl ") {
                Some(command) => lines.push(command.to_string()),
                None => lines.last_mut().unwrap().push_str(l),
            }
        }
        assert!(lines.len() >= 10, "{lines:?}");
        for line in &lines {
            // `[--flag value]` → `--flag value`; a quoted schedule is one
            // operand.
            let argv: Vec<String> = line
                .replace(['[', ']'], " ")
                .split('"')
                .enumerate()
                .flat_map(|(i, part)| match i % 2 {
                    1 => vec![part],
                    _ => part.split_whitespace().collect(),
                })
                .map(str::to_string)
                .collect();
            let opts = parse_args(&argv).unwrap_or_else(|e| panic!("domactl {line}: {e}"));
            assert!(
                accepted_flags(&opts.command, opts.target.as_deref()).is_some(),
                "domactl {line}"
            );
        }
    }

    #[test]
    fn parser_accepts_multi_positional_obs_diff() {
        let o = parse_args(&args(&["obs", "diff", "a.json", "b.json"])).unwrap();
        assert_eq!(o.target.as_deref(), Some("diff"));
        assert_eq!(o.extra, vec!["a.json".to_string(), "b.json".to_string()]);
        assert!(parse_args(&args(&["obs", "diff", "a", "b", "c"])).is_err());
        // `obs` with a non-diff positional is rejected by the command.
        let o = parse_args(&args(&["obs", "bogus", "--schedule", "r1"])).unwrap();
        assert!(cmd_obs(&o).unwrap_err().contains("unexpected argument"));
        // `obs diff` with fewer than two files is a usage error.
        let o = parse_args(&args(&["obs", "diff", "only-one"])).unwrap();
        assert!(cmd_obs(&o).unwrap_err().contains("usage:"));
    }

    #[test]
    fn schedule_and_model_extraction() {
        let o = parse_args(&args(&[
            "cost",
            "--schedule",
            "r1 w2",
            "--model",
            "mc",
            "--cc",
            "0.2",
            "--cd",
            "0.9",
        ]))
        .unwrap();
        let s = o.schedule().unwrap();
        assert_eq!(s.len(), 2);
        let m = o.model().unwrap();
        assert_eq!(m.cio(), 0.0);
        let bad = parse_args(&args(&["cost", "--model", "xy", "--schedule", "r1"])).unwrap();
        assert!(bad.model().is_err());
        let none = parse_args(&args(&["cost"])).unwrap();
        assert!(none.schedule().is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        let o = parse_args(&args(&["cost", "--schedule", "r1 r1 r2 w2 r2"])).unwrap();
        cmd_cost(&o).unwrap();
        let o = parse_args(&args(&["stats", "--schedule", "r1 r1 w0 r2"])).unwrap();
        cmd_stats(&o).unwrap();
        let o = parse_args(&args(&[
            "simulate",
            "--schedule",
            "r2 w3 r2",
            "--algo",
            "da",
        ]))
        .unwrap();
        cmd_simulate(&o).unwrap();
        let o = parse_args(&args(&["generate", "--workload", "zipf", "--len", "10"])).unwrap();
        cmd_generate(&o).unwrap();
        let o = parse_args(&args(&["obs", "--schedule", "r2 w3 r2", "--algo", "sa"])).unwrap();
        cmd_obs(&o).unwrap();
        // `--algo` takes any roster entrant, and names the roster when it
        // rejects one.
        let o = parse_args(&args(&[
            "simulate",
            "--schedule",
            "r2 w3 r2",
            "--algo",
            "cost-oblivious",
        ]))
        .unwrap();
        cmd_simulate(&o).unwrap();
        cmd_obs(&o).unwrap();
        let o = parse_args(&args(&["simulate", "--schedule", "r2", "--algo", "opt"])).unwrap();
        let e = cmd_simulate(&o).unwrap_err();
        for entrant in Entrant::ALL {
            assert!(e.contains(entrant.as_str()), "{e}");
        }
        let o = parse_args(&args(&[
            "obs",
            "--schedule",
            "r2 w3 r2",
            "--format",
            "table",
        ]))
        .unwrap();
        cmd_obs(&o).unwrap();
    }

    #[test]
    fn tournament_runs_and_rejects_bad_format() {
        let o = parse_args(&args(&[
            "tournament",
            "--n",
            "5",
            "--len",
            "12",
            "--seed",
            "3",
        ]))
        .unwrap();
        cmd_tournament(&o).unwrap();
        let o = parse_args(&args(&[
            "tournament",
            "--n",
            "5",
            "--len",
            "12",
            "--format",
            "yaml",
        ]))
        .unwrap();
        assert!(cmd_tournament(&o).is_err());
    }

    #[test]
    fn scenario_lists_and_runs_builtins() {
        let o = parse_args(&args(&["scenario", "list"])).unwrap();
        cmd_scenario(&o).unwrap();
        let o = parse_args(&args(&["scenario"])).unwrap();
        let e = cmd_scenario(&o).unwrap_err();
        assert!(e.contains("builtins:"), "{e}");
        let o = parse_args(&args(&["scenario", "flash-crowd", "--format", "yaml"])).unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("--format"));
        let o = parse_args(&args(&["scenario", "no-such-scenario"])).unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("unknown builtin"));
        let o = parse_args(&args(&["scenario", "/no/such/file.toml"])).unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("cannot read"));
    }

    #[test]
    fn file_reads_the_trace_format() {
        let schedule: Schedule = "r1 w2 r3 r3 w0".parse().unwrap();
        let mut buf = Vec::new();
        doma_workload::trace::write_trace(&mut buf, &schedule, Some("written by write_trace"), 2)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# written by write_trace\n"));
        let path = temp_file("trace.txt", &text);
        let o = parse_args(&args(&["cost", "--file", path.to_str().unwrap()])).unwrap();
        assert_eq!(o.schedule().unwrap(), schedule);
        let missing = parse_args(&args(&["cost", "--file", "/no/such/trace.txt"])).unwrap();
        assert!(missing.schedule().unwrap_err().starts_with("--file "));
    }

    /// `obs` and `trace` print the same bytes on every run of the same
    /// inputs, and each export carries its contract's keys: the obs
    /// snapshot, the Chrome trace-event JSON and the slowest-K report.
    #[test]
    fn obs_and_trace_exports_are_byte_stable() {
        let obs = [
            "obs",
            "--schedule",
            "r2 w3 r2 r1 w0 r3 w2 r0",
            "--algo",
            "da",
        ];
        let chrome = ["trace", "append-only-6-2", "--format", "chrome"];
        let table = ["trace", "append-only-6-2", "--top", "5"];
        for (argv, keys) in [
            (
                &obs[..],
                &["\"metrics\"", "\"events\"", "\"dropped_events\""][..],
            ),
            (
                &chrome,
                &[
                    "\"traceEvents\"",
                    "\"ph\": \"X\"",
                    "\"protocol.request\"",
                    "\"cp\": \"1\"",
                ],
            ),
            (&table, &["slowest 5 of"]),
        ] {
            let o = parse_args(&args(argv)).unwrap();
            let output = || match o.command.as_str() {
                "obs" => obs_output(&o).unwrap(),
                _ => trace_output(&o).unwrap(),
            };
            let first = output();
            assert_eq!(first, output(), "{argv:?} differs across identical runs");
            for key in keys {
                assert!(first.contains(key), "{argv:?} output lacks {key}");
            }
        }
    }

    #[test]
    fn obs_rejects_bad_format() {
        let o = parse_args(&args(&["obs", "--schedule", "r1", "--format", "xml"])).unwrap();
        assert!(cmd_obs(&o).is_err());
    }

    fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("domactl-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn trace_runs_scenarios_and_workloads() {
        let o = parse_args(&args(&["trace", "append-only-6-2"])).unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&["trace", "append-only-6-2", "--format", "chrome"])).unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&[
            "trace", "uniform", "--len", "12", "--algo", "sa", "--top", "3",
        ]))
        .unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&[
            "trace",
            "zipf",
            "--len",
            "12",
            "--algo",
            "mobile-mirror",
        ]))
        .unwrap();
        cmd_trace(&o).unwrap();
        let o = parse_args(&args(&["trace", "zipf", "--algo", "opt"])).unwrap();
        assert!(cmd_trace(&o)
            .unwrap_err()
            .contains("expected one of: sa, da"));
        let o = parse_args(&args(&["trace", "no-such-target"])).unwrap();
        let e = cmd_trace(&o).unwrap_err();
        assert!(
            e.contains("unknown builtin") && e.contains("workloads:"),
            "{e}"
        );
        let o = parse_args(&args(&["trace", "uniform", "--format", "svg"])).unwrap();
        assert!(cmd_trace(&o).unwrap_err().contains("--format"));
        let o = parse_args(&args(&["trace"])).unwrap();
        assert!(cmd_trace(&o).unwrap_err().contains("need a target"));
    }

    #[test]
    fn obs_diff_detects_changes_and_clean_runs() {
        let snap_a = "{\"dropped_events\": 0, \"events\": [], \"metrics\": \
             [{\"component\": \"p\", \"name\": \"x\", \"labels\": {}, \
             \"kind\": \"counter\", \"value\": 1}]}";
        let snap_b = snap_a.replace("\"value\": 1", "\"value\": 2");
        let a = temp_file("diff_a.json", snap_a);
        let b = temp_file("diff_b.json", &snap_b);
        let same = parse_args(&args(&[
            "obs",
            "diff",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_obs(&same).unwrap();
        let differ = parse_args(&args(&[
            "obs",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(cmd_obs(&differ).unwrap_err().contains("differ"));
    }

    #[test]
    fn scenario_diff_flag_compares_against_a_baseline() {
        let scenario = doma_scenario::builtin::load("append-only-6-2").unwrap();
        let report = doma_scenario::run(&scenario).unwrap();
        let baseline = temp_file("scenario_baseline.json", &report.snapshot_json);
        let o = parse_args(&args(&[
            "scenario",
            "append-only-6-2",
            "--diff",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        cmd_scenario(&o).unwrap();
        let o = parse_args(&args(&[
            "scenario",
            "append-only-6-2",
            "--diff",
            "/no/such/baseline.json",
        ]))
        .unwrap();
        assert!(cmd_scenario(&o).unwrap_err().contains("--diff"));
    }

    /// `generate` takes every generator kind by the name a scenario file
    /// gives it, read off the builtins' phases.
    #[test]
    fn generate_takes_the_scenario_file_workload_names() {
        let names: Vec<&str> = builtins()
            .unwrap()
            .into_iter()
            .flat_map(|s| s.phases)
            .map(|p| p.workload.name())
            .filter(|name| *name != "trace")
            .collect();
        assert!(names.contains(&"append-only"), "{names:?}");
        for name in names {
            let o = parse_args(&args(&["generate", "--workload", name, "--len", "8"])).unwrap();
            cmd_generate(&o).unwrap_or_else(|e| panic!("generate --workload {name}: {e}"));
        }
        let o = parse_args(&args(&["generate", "--workload", "append"])).unwrap();
        assert!(cmd_generate(&o).unwrap_err().contains("append-only"));
    }

    /// Lint and the socket twin each have one path: `lint` is no command,
    /// `scenario` takes no `--transport`, and `cluster` runs `all`.
    #[test]
    fn one_command_per_job() {
        let e = parse_args(&args(&["scenario", "all", "--transport", "uds"])).unwrap_err();
        assert!(e.contains("does not take --transport"), "{e}");
        let e = dispatch(&parse_args(&args(&["lint"])).unwrap()).unwrap_err();
        assert!(e.starts_with("unknown command 'lint'"), "{e}");
        // Sockets refused by the platform print a notice and pass.
        let o = parse_args(&args(&["cluster", "all", "--transport", "uds"])).unwrap();
        dispatch(&o).unwrap();
    }

    /// `cluster --nodes N` resizes the scenario before validation: a size
    /// its file could not declare fails naming the broken rule.
    #[test]
    fn cluster_nodes_go_through_the_scenario_validator() {
        for (line, rule) in [
            ("cluster uniform --nodes 2", "'n' must be in 3..=64"),
            ("cluster mobile-handoff --nodes 3", "mobile universe"),
        ] {
            let argv: Vec<&str> = line.split(' ').collect();
            let e = cmd_cluster(&parse_args(&args(&argv)).unwrap()).unwrap_err();
            assert!(e.contains("--nodes") && e.contains(rule), "{line}: {e}");
        }
    }

    #[test]
    fn cost_rejects_bad_t_and_algo() {
        let o = parse_args(&args(&["cost", "--schedule", "r1", "--t", "9"])).unwrap();
        assert!(cmd_cost(&o).is_err());
        let o = parse_args(&args(&["cost", "--schedule", "r1", "--algo", "zzz"])).unwrap();
        assert!(cmd_cost(&o).is_err());
    }
}
