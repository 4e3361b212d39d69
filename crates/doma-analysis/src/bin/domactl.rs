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
//! domactl generate --workload uniform|zipf|hotspot|chaotic|mobile|append
//!                  [--n 6] [--len 50] [--seed 0] [--read-fraction 0.7]
//! domactl tournament [--n 6] [--len 40] [--seed 7] [--out BENCH_tournament.json]
//!                  [--format table|json]
//! domactl scenario <name|path|all|list> [--format table|json]
//!                  [--diff <baseline.json>] [--transport sim|tcp|uds]
//! domactl cluster  <scenario|workload> --nodes N [--transport tcp|uds]
//!                  [--entrant <entrant>] [--n 6] [--len 40] [--seed 7]
//!                  [--read-fraction 0.7]
//! domactl trace    <scenario|workload> [--format table|chrome] [--top 10]
//!                  [--events N] [--algo <entrant>] [--n 6] [--len 50]
//!                  [--seed 0] [--read-fraction 0.7]
//! domactl obs diff <a.json> <b.json> [--scenario NAME]
//! domactl lint     [--root PATH] [--format table|json] [--rule <id>]
//! ```
//!
//! Schedules use the paper's notation: whitespace-separated `r<i>` / `w<i>`
//! tokens. `--file <path>` reads the schedule from a file instead.
//! `<entrant>` is any name of the roster ([`doma_protocol::Entrant`]):
//! `sa`, `da`, `convergent`, `write-invalidate`, `cost-oblivious`,
//! `mobile-mirror` or `clustered`, always in its canonical deployment.
//! `<scenario|workload>` is a builtin scenario name, a scenario `.toml`
//! path, or an ad-hoc workload kind (the `generate --workload` list).

use doma_algorithms::{DynamicAllocation, OfflineOptimal, StaticAllocation};
use doma_core::{
    run_offline, run_online, schedule_stats, CostModel, ProcSet, ProcessorId, RunOutcome, Schedule,
};
use doma_protocol::Entrant;
use doma_scenario::{Scenario, WorkloadSpec};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parsed command-line options: positional command + `--key value` flags
/// (`--verbose` is a bare flag).
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
}

/// How many positional operands a command accepts after its name.
fn positional_arity(command: &str) -> usize {
    match command {
        "scenario" | "trace" | "cluster" => 1,
        "obs" => 3, // bare `obs`, or `obs diff <a> <b>`
        _ => 0,
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--verbose" {
            opts.verbose = true;
        } else if let Some(key) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            opts.flags.insert(key.to_string(), value.clone());
        } else if opts.command.is_empty() {
            opts.command = arg.clone();
        } else {
            positionals.push(arg.clone());
        }
    }
    if opts.command.is_empty() {
        return Err(
            "missing command (cost | stats | simulate | obs | generate | tournament | scenario | cluster | trace | lint)"
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
        let text = if let Some(path) = self.flags.get("file") {
            std::fs::read_to_string(path).map_err(|e| format!("--file {path}: {e}"))?
        } else if let Some(s) = self.flags.get("schedule") {
            s.clone()
        } else {
            return Err("need --schedule \"r1 w2 ...\" or --file <path>".to_string());
        };
        text.parse::<Schedule>().map_err(|e| e.to_string())
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
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let events = opts.get_usize("events", 256)?;
    let err = |e: doma_core::DomaError| e.to_string();
    let mut sim = opts.entrant("algo", "da")?.sim(n).map_err(err)?;
    let obs = sim.attach_obs(events);
    sim.attach_tracer_on(obs.events().clone());
    sim.execute(&schedule).map_err(err)?;
    sim.obs_flush();
    match opts.get("format", "json").as_str() {
        "json" => println!("{}", obs.snapshot_json()),
        "table" => {
            println!("{}", obs.metrics().snapshot());
            let rendered = obs.events().render();
            if !rendered.is_empty() {
                println!("{rendered}");
            }
        }
        other => return Err(format!("--format must be json or table, got '{other}'")),
    }
    Ok(())
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

    match format.as_str() {
        "chrome" => println!("{}", chrome_trace(&model)),
        _ => {
            println!(
                "trace: scenario {} ({} entrant, {} requests, cost {} control / {} data / {} I/O)",
                report.scenario,
                report.entrant,
                report.requests,
                report.cost.control,
                report.cost.data,
                report.cost.io
            );
            if model.truncated() {
                println!(
                    "  WARNING: event log truncated ({} dropped, {} orphan exits) — raise --events",
                    model.dropped_events, model.orphan_exits
                );
            }
            print!("{}", slowest_report(&model, top));
        }
    }
    Ok(())
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

/// The ad-hoc workload kinds `generate`, `trace` and `cluster` accept.
const WORKLOADS: &[&str] = &["uniform", "zipf", "hotspot", "chaotic", "mobile", "append"];

/// The one table behind [`WORKLOADS`]: each kind's shape on `n`
/// processors, with the parameters the CLI does not expose fixed.
fn adhoc_workload(kind: &str, n: usize, rf: f64) -> Result<WorkloadSpec, String> {
    Ok(match kind {
        "uniform" => WorkloadSpec::Uniform { read_fraction: rf },
        "zipf" => WorkloadSpec::Zipf {
            theta: 1.0,
            read_fraction: rf,
        },
        "hotspot" => WorkloadSpec::Hotspot {
            phase_len: 20,
            hot_prob: rf,
        },
        "chaotic" => WorkloadSpec::Chaotic { redraw_every: 8 },
        "mobile" => WorkloadSpec::Mobile {
            cells: n / 2,
            callers: n - n / 2 - 1,
            move_prob: 0.3,
            read_fraction: rf,
        },
        "append" => WorkloadSpec::AppendOnly {
            generators: 2,
            reads_per_write: 3.0,
        },
        other => return Err(format!("unknown --workload '{other}'")),
    })
}

fn targets_help() -> String {
    format!(
        "builtins: {}\nworkloads: {}",
        doma_scenario::builtin::names().join(", "),
        WORKLOADS.join(", ")
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
    if !WORKLOADS.contains(&target) {
        return load_scenario(target)
            .map_err(|e| format!("{e}\nworkloads: {}", WORKLOADS.join(", ")));
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
        environment: "sc".to_string(),
        cc: 0.25,
        cd: 1.0,
        phases: vec![doma_scenario::Phase {
            name: "main".to_string(),
            len: opts.get_usize("len", default_len)?,
            workload,
        }],
        faults: Vec::new(),
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
    let spec = doma_analysis::tournament::TournamentSpec {
        n: opts.get_usize("n", 6)?,
        len: opts.get_usize("len", 40)?,
        seed: opts.get_usize("seed", 7)? as u64,
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

/// Parses a `--transport` value for the socket runtime commands.
fn socket_transport(value: &str) -> Result<doma_net::TransportKind, String> {
    doma_net::TransportKind::parse(value)
        .ok_or_else(|| format!("--transport must be tcp or uds, got '{value}'"))
}

/// `domactl cluster <scenario|workload>` — spawn N protocol nodes over
/// real sockets, drive the scenario's schedule through them, and
/// cross-check the run against the deterministic sim twin: same seed,
/// same request schedule, therefore (if the transport layer is correct)
/// the same allocation-scheme trajectory and the same obs cost totals.
fn cmd_cluster(opts: &Opts) -> Result<(), String> {
    let target = opts.target.as_deref().ok_or_else(|| {
        format!(
            "need a target: domactl cluster <scenario|workload> --nodes N [--transport tcp|uds]\n{}",
            targets_help()
        )
    })?;
    let kind = socket_transport(&opts.get("transport", "uds"))?;
    let scenario = resolve_target(opts, target, "entrant", "sa", 40, 7)?;
    let nodes = match opts.flags.get("nodes") {
        Some(_) => Some(opts.get_usize("nodes", scenario.n)?),
        None => None,
    };
    match doma_analysis::cluster::run_twin(&scenario, kind, nodes) {
        Ok(report) => {
            print!("{}", report.render());
            if report.matches() {
                Ok(())
            } else {
                Err(format!(
                    "cluster diverged from the sim twin ({} difference(s))",
                    report.diffs.len()
                ))
            }
        }
        Err(e) if e.starts_with("sockets unavailable") => {
            println!("notice: {e}; cluster run skipped");
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Runs a declarative scenario (builtin by name, or a `.toml` file by
/// path) through the protocol simulator with obs attached, audits its
/// expected-invariant block, and prints the report. `scenario list`
/// prints the builtin roster; `scenario all` replays every builtin and
/// fails if any expectation (golden digest included) is violated.
fn cmd_scenario(opts: &Opts) -> Result<(), String> {
    let target = opts
        .target
        .clone()
        .or_else(|| opts.flags.get("name").cloned())
        .ok_or_else(|| {
            format!(
                "need a scenario: domactl scenario <name|path|all|list>\nbuiltins: {}",
                doma_scenario::builtin::names().join(", ")
            )
        })?;
    let format = opts.get("format", "table");
    if !["table", "json"].contains(&format.as_str()) {
        return Err(format!("--format must be table or json, got '{format}'"));
    }
    let transport = opts.get("transport", "sim");
    if !["sim", "tcp", "uds"].contains(&transport.as_str()) {
        return Err(format!(
            "--transport must be sim, tcp or uds, got '{transport}'"
        ));
    }
    if target == "list" {
        for name in doma_scenario::builtin::names() {
            let s = doma_scenario::builtin::load(name).map_err(|e| format!("{name}: {e}"))?;
            println!("{name:<22} {}", s.description);
        }
        return Ok(());
    }
    let scenarios: Vec<Scenario> = if target == "all" {
        doma_scenario::builtin::names()
            .into_iter()
            .map(|name| doma_scenario::builtin::load(name).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<_, _>>()?
    } else {
        vec![load_scenario(&target)?]
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
        // `--transport tcp|uds`: replay the scenario over real sockets
        // and hold the cluster to the sim run the golden digest pinned.
        if transport != "sim" {
            let note = |msg: &str| {
                if format != "json" {
                    println!("{msg}");
                }
            };
            if !scenario.faults.is_empty() {
                note(&format!(
                    "  transport {transport}: skipped (scenario injects faults; \
                     the real runtime is failure-free)"
                ));
                continue;
            }
            match doma_analysis::cluster::run_twin(scenario, socket_transport(&transport)?, None) {
                Ok(twin) if twin.matches() => note(&format!(
                    "  transport {transport}: MATCH — cluster reproduced the sim twin \
                     ({} requests)",
                    twin.requests
                )),
                Ok(twin) => {
                    for d in &twin.diffs {
                        note(&format!("  transport {transport}: DIVERGED — {d}"));
                    }
                    failed.push(format!(
                        "{}: cluster diverged from the sim twin over {transport} \
                         ({} difference(s))",
                        report.scenario,
                        twin.diffs.len()
                    ));
                }
                Err(e) if e.starts_with("sockets unavailable") => {
                    note(&format!("notice: {e}; cluster replay skipped"));
                }
                Err(e) => return Err(e),
            }
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

/// `domactl lint [--root PATH] [--format table|json] [--rule <id>]` —
/// the static-analysis wall, runnable outside verify.sh. Exits nonzero
/// on any finding (after `--rule` filtering), so scripts can gate on it.
fn cmd_lint(opts: &Opts) -> Result<(), String> {
    let root = opts.get("root", ".");
    let ws = doma_lint::load_workspace(std::path::Path::new(&root))?;
    let mut report = doma_lint::run(&ws)?;
    if let Some(rule) = opts.flags.get("rule") {
        report.findings.retain(|f| f.rule == rule);
    }
    match opts.get("format", "table").as_str() {
        "json" => print!("{}", doma_lint::render_json(&report)),
        "table" => print!("{}", doma_lint::render_table(&report)),
        other => return Err(format!("--format must be table or json, got '{other}'")),
    }
    if report.findings.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint finding(s)", report.findings.len()))
    }
}

fn usage() -> String {
    format!(
        "usage: domactl <cost|stats|simulate|obs|generate|tournament|scenario|cluster|trace|lint> [--flags]\n\
         try: domactl cost --schedule \"r1 r1 r2 w2 r2 r2 r2\" --cc 0.5 --cd 1.0\n\
         try: domactl simulate --schedule \"r2 w3 r2\" --algo <{}>\n\
         try: domactl scenario list\n\
         try: domactl cluster append-only-6-2 --nodes 3 --transport uds\n\
         try: domactl trace append-only-6-2 --format chrome\n\
         try: domactl lint --format json",
        Entrant::ALL.map(|e| e.as_str()).join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|opts| match opts.command.as_str() {
        "cost" => cmd_cost(&opts),
        "stats" => cmd_stats(&opts),
        "simulate" => cmd_simulate(&opts),
        "obs" => cmd_obs(&opts),
        "generate" => cmd_generate(&opts),
        "tournament" => cmd_tournament(&opts),
        "scenario" => cmd_scenario(&opts),
        "cluster" => cmd_cluster(&opts),
        "trace" => cmd_trace(&opts),
        "lint" => cmd_lint(&opts),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    });
    match result {
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

    #[test]
    fn cost_rejects_bad_t_and_algo() {
        let o = parse_args(&args(&["cost", "--schedule", "r1", "--t", "9"])).unwrap();
        assert!(cmd_cost(&o).is_err());
        let o = parse_args(&args(&["cost", "--schedule", "r1", "--algo", "zzz"])).unwrap();
        assert!(cmd_cost(&o).is_err());
    }
}
