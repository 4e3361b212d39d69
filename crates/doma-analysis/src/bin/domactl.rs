//! `domactl` — command-line front end for the library.
//!
//! Every command is one row of [`COMMANDS`]: its operands, and each flag
//! it reads with that flag's default and allowed values. The parser, the
//! usage text (printed after a missing or unknown command) and dispatch
//! read that table alone, so a flag the row does not list is a usage
//! error naming the ones it does, and two flags the row says exclude each
//! other are one too.
//!
//! Schedules use the paper's notation: whitespace-separated `r<i>` / `w<i>`
//! tokens. `--file <path>` reads the schedule from a trace file instead
//! (the format `doma_workload::trace::write_trace` emits: `#` comments,
//! blank lines and any line wrapping are fine).
//! An entrant flag (`--algo`, `--entrant`) takes any name of the roster
//! ([`doma_protocol::Entrant`]), always in its canonical deployment.
//! `<scenario|workload>` is a builtin scenario name, a scenario `.toml`
//! path, or an ad-hoc workload kind (the `generate --workload` list).
//! `repro` regenerates every figure and bound of the paper (the roster
//! is `doma_analysis::experiments`); `--fast` shrinks grids and batteries
//! for a smoke run, and the default settings match EXPERIMENTS.md.
//! Every command writes to the one `out` that `main` owns; a reader that
//! closes it early (`domactl generate --len 5000 | head`) ends the run
//! cleanly.

use doma_algorithms::{DynamicAllocation, OfflineOptimal, StaticAllocation};
use doma_analysis::obsdiff;
use doma_core::{
    run_offline, run_online, schedule_stats, CostModel, ProcSet, ProcessorId, Schedule,
};
use doma_obs::json::escape;
use doma_protocol::Entrant;
use doma_scenario::{Scenario, WorkloadSpec};
use doma_workload::trace::read_trace;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// What a command returns: a message for stderr, or a failed write to
/// `out`.
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// One `domactl` command: everything the parser, the usage text and
/// dispatch know about it.
struct Command {
    /// The command words (`obs diff` is two).
    name: &'static str,
    /// The positional operands as usage shows them; at most this many.
    operands: &'static [&'static str],
    /// Every flag the command reads, in usage order.
    flags: &'static [(&'static str, Value)],
    run: fn(&Opts, &mut dyn Write) -> Outcome,
}

/// What a flag takes, and what it is when absent.
#[derive(Clone, Copy)]
enum Value {
    /// A bare switch: off when absent.
    Switch,
    /// Any value; unset when absent. The text names it.
    Optional(&'static str),
    /// Any value; this literal when absent.
    Is(&'static str),
    /// Any value; when absent the command computes it, as the text says.
    Computed(&'static str),
    /// One of these values; the first when absent.
    OneOf(&'static [&'static str]),
    /// A roster entrant ([`Entrant::ALL`]); this one when absent.
    Roster(&'static str),
    /// An ad-hoc workload kind ([`workload_names`]); this one when absent.
    Workload(&'static str),
    /// Any value, instead of the flag listed just before it in the row:
    /// never both. Unset when absent; the text names it.
    Instead(&'static str),
}
use Value::{Computed, Instead, Is, OneOf, Optional, Roster, Switch, Workload};

const SCHEDULE: (&str, Value) = ("schedule", Optional("r1 w2 ..."));
const FILE: (&str, Value) = ("file", Instead("path"));
const UNIVERSE: (&str, Value) = ("n", Computed("the schedule's processors, at least 3"));
const READ_FRACTION: (&str, Value) = ("read-fraction", Is("0.7"));

/// The CLI: one row per command, laid out as a table.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "cost", operands: &[], run: cmd_cost, flags: &[
        SCHEDULE, FILE, ("algo", OneOf(&["all", "sa", "da", "opt"])), ("model", OneOf(&["sc", "mc"])),
        ("cc", Is("0.25")), ("cd", Is("1.0")), ("t", Is("2")), UNIVERSE, ("verbose", Switch),
    ] },
    Command { name: "stats", operands: &[], run: cmd_stats, flags: &[SCHEDULE, FILE] },
    Command { name: "simulate", operands: &[], run: cmd_simulate, flags: &[
        SCHEDULE, FILE, ("algo", Roster("da")), UNIVERSE,
    ] },
    Command { name: "obs", operands: &[], run: cmd_obs, flags: &[
        SCHEDULE, FILE, ("algo", Roster("da")), UNIVERSE, ("format", OneOf(&["json", "table"])),
        ("events", Is("256")),
    ] },
    Command { name: "obs diff", operands: &["<a.json>", "<b.json>"], run: cmd_obs_diff, flags: &[
        ("scenario", Optional("name")),
    ] },
    Command { name: "generate", operands: &[], run: cmd_generate, flags: &[
        ("workload", Workload("uniform")), ("n", Is("6")), ("len", Is("50")), ("seed", Is("0")),
        READ_FRACTION,
    ] },
    Command { name: "tournament", operands: &[], run: cmd_tournament, flags: &[
        ("n", Is("6")), ("len", Is("40")), ("seed", Is("7")), ("out", Optional("path")),
        ("format", OneOf(&["table", "json"])),
    ] },
    Command { name: "scenario", operands: &["<name|path|all|list>"], run: cmd_scenario, flags: &[
        ("format", OneOf(&["table", "json"])), ("diff", Optional("baseline.json")),
    ] },
    Command { name: "cluster", operands: &["<scenario|workload|all>"], run: cmd_cluster, flags: &[
        ("nodes", Computed("the scenario's n")), ("transport", OneOf(&["uds", "tcp"])),
        ("entrant", Roster("sa")), ("n", Is("6")), ("len", Is("40")), ("seed", Is("7")), READ_FRACTION,
    ] },
    Command { name: "trace", operands: &["<scenario|workload>"], run: cmd_trace, flags: &[
        ("format", OneOf(&["table", "chrome"])), ("top", Is("10")), ("events", Computed("the scenario's")),
        ("algo", Roster("da")), ("n", Is("6")), ("len", Is("50")), ("seed", Is("0")), READ_FRACTION,
    ] },
    Command { name: "repro", operands: &["[<experiment|all>]"], run: cmd_repro, flags: &[
        ("fast", Switch),
    ] },
];

impl Value {
    /// The literal default, if the flag has one.
    fn default(self) -> Option<&'static str> {
        match self {
            Is(v) | Roster(v) | Workload(v) => Some(v),
            OneOf(values) => values.first().copied(),
            Switch | Optional(_) | Computed(_) | Instead(_) => None,
        }
    }

    /// The allowed values, default first; `None` when any value goes.
    fn choices(self) -> Option<Vec<&'static str>> {
        let mut all = match self {
            OneOf(values) => values.to_vec(),
            Roster(_) => Entrant::ALL.map(|e| e.as_str()).to_vec(),
            Workload(_) => workload_names(),
            Switch | Optional(_) | Is(_) | Computed(_) | Instead(_) => return None,
        };
        all.sort_by_key(|v| Some(*v) != self.default());
        Some(all)
    }

    /// How the usage text shows the value: `a|b` is a choice with the
    /// default first, and `<...>` names a value with no literal default.
    fn usage(self) -> String {
        match (self, self.choices()) {
            (_, Some(choices)) => format!(" {}", choices.join("|")),
            (Optional(what) | Instead(what), None) => format!(" <{what}>"),
            (Computed(how), None) => format!(" <default: {how}>"),
            (Is(v), None) => format!(" {v}"),
            _ => String::new(),
        }
    }
}

impl Command {
    fn flag(&self, key: &str) -> Option<Value> {
        self.flags.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    fn words(&self) -> Vec<String> {
        self.name.split(' ').map(str::to_string).collect()
    }

    /// `domactl <name> <operands> [--flag value]...`, where two flags
    /// that exclude each other share one bracket: `[--a x | --b y]`.
    fn usage(&self) -> String {
        let mut line = format!("domactl {}", self.name);
        for operand in self.operands {
            line += &format!(" {operand}");
        }
        for &(key, value) in self.flags {
            if let Instead(_) = value {
                line.pop();
                line += &format!(" | --{key}{}]", value.usage());
            } else {
                line += &format!(" [--{key}{}]", value.usage());
            }
        }
        line
    }

    /// The `(flag, flag)` pairs of the row that exclude each other.
    fn exclusions(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.flags.windows(2).filter_map(|pair| match pair {
            [(before, _), (key, Instead(_))] => Some((*before, *key)),
            _ => None,
        })
    }
}

/// The usage text: one line per [`COMMANDS`] row.
fn usage() -> String {
    let head = "usage (a|b: one of these, the first is the default):";
    COMMANDS.iter().fold(head.to_string(), |text, c| {
        format!("{text}\n  {}", c.usage())
    })
}

/// A parsed command line: the command's row, its operands, and the flags
/// given (a switch maps to an empty value).
struct Opts {
    command: &'static Command,
    operands: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let is_switch = |key| COMMANDS.iter().any(|c| matches!(c.flag(key), Some(Switch)));
    let (mut flags, mut words) = (BTreeMap::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = match is_switch(key) {
                true => "",
                false => it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?,
            };
            if flags.insert(key.to_string(), value.to_string()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        } else if arg.starts_with('-') {
            return Err(format!("unexpected argument '{arg}'"));
        } else {
            words.push(arg.clone());
        }
    }
    let Some(first) = words.first() else {
        return Err(format!("missing command\n{}", usage()));
    };
    let command = COMMANDS
        .iter()
        .filter(|c| words.starts_with(&c.words()))
        .max_by_key(|c| c.words().len())
        .ok_or_else(|| format!("unknown command '{first}'\n{}", usage()))?;
    let operands = words.split_off(command.words().len());
    if let Some(extra) = operands.get(command.operands.len()) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    for (key, value) in &flags {
        let Some(kind) = command.flag(key) else {
            let accepted: Vec<&str> = command.flags.iter().map(|(k, _)| *k).collect();
            let accepted = accepted.join(", --");
            return Err(format!(
                "{} does not take --{key} (accepted: --{accepted})",
                command.name
            ));
        };
        let choices = kind.choices().unwrap_or_default();
        if !choices.is_empty() && !choices.contains(&value.as_str()) {
            let expected = choices.join(", ");
            return Err(format!(
                "unknown --{key} '{value}' (expected one of: {expected})"
            ));
        }
    }
    if let Some((a, b)) = command
        .exclusions()
        .find(|(a, b)| flags.contains_key(*a) && flags.contains_key(*b))
    {
        return Err(format!("--{a} and --{b} both given: give one"));
    }
    Ok(Opts {
        command,
        operands,
        flags,
    })
}

impl Opts {
    fn given(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// `--key`'s value as given, else the table's literal default.
    fn value(&self, key: &str) -> Option<&str> {
        match self.flags.get(key) {
            Some(v) => Some(v),
            None => self.command.flag(key).and_then(Value::default),
        }
    }

    /// `--key`'s value parsed; a flag whose default is computed must be
    /// [`given`](Self::given).
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.value(key).ok_or_else(|| format!("need --{key}"))?;
        v.parse().map_err(|_| format!("--{key}: bad number '{v}'"))
    }

    /// The roster entrant named by `--<key>`.
    fn entrant(&self, key: &str) -> Result<Entrant, String> {
        Entrant::from_name(self.value(key).unwrap_or_default())
    }

    /// The first operand, or an error naming what goes there.
    fn target(&self, help: String) -> Result<&str, String> {
        let (name, operands) = (self.command.name, self.command.operands.join(" "));
        let need = || format!("need a target: domactl {name} {operands}\n{help}");
        self.operands.first().map(String::as_str).ok_or_else(need)
    }

    /// The schedule of `--schedule` or `--file` (the parser has made sure
    /// that at most one is given).
    fn schedule(&self) -> Result<Schedule, String> {
        match (self.value("schedule"), self.value("file")) {
            (Some(s), _) => s.parse::<Schedule>().map_err(|e| e.to_string()),
            (None, Some(path)) => {
                let file = std::fs::File::open(path).map_err(|e| format!("--file {path}: {e}"))?;
                read_trace(file).map_err(|e| format!("--file {path}: {e}"))
            }
            (None, None) => Err("need --schedule \"r1 w2 ...\" or --file <path>".to_string()),
        }
    }

    fn model(&self) -> Result<CostModel, String> {
        let (cc, cd) = (self.num("cc")?, self.num("cd")?);
        match self.value("model") {
            Some("mc") => CostModel::mobile(cc, cd),
            _ => CostModel::stationary(cc, cd),
        }
        .map_err(|e| e.to_string())
    }
}

fn universe_for(schedule: &Schedule, opts: &Opts) -> Result<usize, String> {
    let min = schedule.min_processors().max(3);
    let n = if opts.given("n") { opts.num("n")? } else { min };
    match n < min {
        true => Err(format!(
            "--n {n} too small; the schedule uses {min} processors"
        )),
        false => Ok(n),
    }
}

fn cmd_cost(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let schedule = opts.schedule()?;
    let model = opts.model()?;
    let t: usize = opts.num("t")?;
    let n = universe_for(&schedule, opts)?;
    if t < 2 || t >= n {
        return Err(format!("need 2 <= t < n (t={t}, n={n})").into());
    }
    let q: ProcSet = (0..t).collect();
    let f: ProcSet = (0..t - 1).collect();
    let p = ProcessorId::new(t - 1);
    writeln!(
        out,
        "schedule: {schedule}\nmodel: {} cc={} cd={} cio={}  t={t}  n={n}  initial scheme {q}",
        model.environment(),
        model.cc(),
        model.cd(),
        model.cio()
    )?;
    let algo = opts.value("algo").unwrap_or_default();
    for name in ["sa", "da", "opt"] {
        if algo != name && algo != "all" {
            continue;
        }
        let outcome = match name {
            "sa" => run_online(&mut StaticAllocation::new(q)?, &schedule)?,
            "da" => run_online(&mut DynamicAllocation::new(f, p)?, &schedule)?,
            _ => run_offline(&OfflineOptimal::new(n, t, q, model)?, &schedule)?,
        };
        let (costed, name) = (&outcome.costed, name.to_uppercase());
        writeln!(
            out,
            "{name:>4}: cost {:.3}  ({} control, {} data, {} I/O)  final scheme {}",
            costed.total_cost(&model),
            costed.total.control,
            costed.total.data,
            costed.total.io,
            costed.final_scheme
        )?;
        if opts.given("verbose") {
            for pr in &costed.per_request {
                let (step, scheme, cost) = (&pr.step, &pr.scheme, &pr.cost);
                writeln!(out, "        {step}  scheme {scheme}  cost {cost}")?;
            }
        }
    }
    Ok(())
}

fn cmd_stats(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let schedule = opts.schedule()?;
    let stats = schedule_stats(&schedule);
    writeln!(
        out,
        "{} requests ({} reads / {} writes), read fraction {:.2}",
        schedule.len(),
        schedule.read_count(),
        schedule.write_count(),
        stats.read_fraction
    )?;
    writeln!(
        out,
        "mean read-run length {:.2}; mean distinct readers per write interval {:.2}",
        stats.mean_read_run(),
        stats.mean_readers_per_interval
    )?;
    writeln!(out, "active processors: {}", stats.active_processors())?;
    for (i, a) in stats.per_processor.iter().enumerate() {
        if a.total() > 0 {
            writeln!(out, "  P{i}: {} reads, {} writes", a.reads, a.writes)?;
        }
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let algo = opts.entrant("algo")?;
    let report = algo.sim(n)?.execute(&schedule)?;
    writeln!(
        out,
        "{} protocol on {n} simulated nodes: {} control msgs, {} data msgs, {} I/Os",
        algo.as_str().to_uppercase(),
        report.cost.control,
        report.cost.data,
        report.cost.io
    )?;
    writeln!(
        out,
        "final replica set {}; {} reads completed, mean latency {:.1} ticks",
        report.final_holders, report.reads_completed, report.mean_read_latency
    )?;
    Ok(())
}

/// Builds the protocol sim the way `simulate` does, but with the
/// observability bundle attached, executes the schedule, and prints the
/// snapshot — stable JSON by default (byte-identical across runs of the
/// same inputs), or the aligned metric table plus event log with
/// `--format table`.
fn cmd_obs(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let schedule = opts.schedule()?;
    let n = universe_for(&schedule, opts)?;
    let events = opts.num("events")?;
    let mut sim = opts.entrant("algo")?.sim(n)?;
    let obs = sim.attach_obs(events);
    sim.attach_tracer();
    sim.execute(&schedule)?;
    sim.obs_flush();
    if opts.value("format") == Some("table") {
        writeln!(out, "{}", obs.metrics().snapshot())?;
        let rendered = obs.events().render();
        if !rendered.is_empty() {
            writeln!(out, "{rendered}")?;
        }
    } else {
        writeln!(out, "{}", obs.snapshot_json())?;
    }
    Ok(())
}

/// `domactl obs diff <a.json> <b.json>` — structural diff of two obs
/// snapshots (raw, or wrapped in scenario reports / report arrays;
/// `--scenario NAME` picks one report out of an array). Exits nonzero
/// when the snapshots differ, so scripts can gate on it.
fn cmd_obs_diff(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let [path_a, path_b] = opts.operands.as_slice() else {
        return Err(format!("usage: {}", opts.command.usage()).into());
    };
    let read = |path| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let diff = obsdiff::diff_texts(&read(path_a)?, &read(path_b)?, opts.value("scenario"))?;
    write!(out, "{}", obsdiff::render(&diff))?;
    match diff.is_clean() {
        true => Ok(()),
        false => Err(format!("{path_a} and {path_b} differ").into()),
    }
}

/// `domactl trace <scenario|workload>` — run the target with per-request
/// causal spans enabled and print either the Chrome trace-event JSON
/// (`--format chrome`, perfetto-loadable, byte-stable for a fixed seed)
/// or the slowest-K critical-path report (`--format table`, default).
/// An ad-hoc workload runs under `--algo` (`--n`, `--len`, `--seed`,
/// `--read-fraction` shape it). Violations go to stderr as warnings.
fn cmd_trace(opts: &Opts, out: &mut dyn Write) -> Outcome {
    use doma_obs::trace::{chrome_trace, slowest_report, TraceModel};
    let target = opts.target(targets_help())?;
    let top = opts.num("top")?;
    let mut scenario = resolve_target(opts, target, "algo")?;
    if opts.given("events") {
        scenario.events = opts.num("events")?;
    }
    let (report, obs) =
        doma_scenario::run_traced(&scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
    for violation in &report.violations {
        eprintln!("warning: {}: {violation}", report.scenario);
    }
    let model = TraceModel::from_obs(&obs);

    if opts.value("format") == Some("chrome") {
        writeln!(out, "{}", chrome_trace(&model))?;
        return Ok(());
    }
    writeln!(
        out,
        "trace: scenario {} ({} entrant, {} requests, cost {} control / {} data / {} I/O)",
        report.scenario,
        report.entrant,
        report.requests,
        report.cost.control,
        report.cost.data,
        report.cost.io
    )?;
    if model.truncated() {
        writeln!(
            out,
            "  WARNING: event log truncated ({} dropped, {} orphan exits) — raise --events",
            model.dropped_events, model.orphan_exits
        )?;
    }
    write!(out, "{}", slowest_report(&model, top))?;
    Ok(())
}

fn cmd_generate(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let n = opts.num("n")?;
    let kind = opts.value("workload").unwrap_or_default();
    let workload = adhoc_workload(kind, n, opts.num("read-fraction")?)?;
    let schedule =
        doma_scenario::runner::generate_phase(&workload, n, opts.num("len")?, opts.num("seed")?)?;
    writeln!(out, "{schedule}")?;
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
    adhoc_workloads(0, 0.0).map(|w| w.name()).to_vec()
}

fn adhoc_workload(kind: &str, n: usize, rf: f64) -> Result<WorkloadSpec, String> {
    adhoc_workloads(n, rf)
        .into_iter()
        .find(|w| w.name() == kind)
        .ok_or_else(|| format!("unknown workload '{kind}'"))
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
/// input shape. `entrant_flag`, `--n`, `--len`, `--seed` and
/// `--read-fraction` apply to the ad-hoc case only; the draft round-trips
/// through the scenario text so the flags get the validation a scenario
/// file gets.
fn resolve_target(opts: &Opts, target: &str, entrant_flag: &str) -> Result<Scenario, String> {
    if !workload_names().contains(&target) {
        return load_scenario(target)
            .map_err(|e| format!("{e}\nworkloads: {}", workload_names().join(", ")));
    }
    let n = opts.num("n")?;
    let workload = adhoc_workload(target, n, opts.num("read-fraction")?)?;
    let draft = Scenario {
        name: format!("adhoc-{}", workload.name()),
        description: "ad-hoc workload".to_string(),
        n,
        seed: opts.num("seed")?,
        entrant: opts.entrant(entrant_flag)?,
        events: 65_536,
        model: CostModel::stationary(0.25, 1.0).map_err(|e| e.to_string())?,
        phases: vec![doma_scenario::Phase {
            name: "main".to_string(),
            len: opts.num("len")?,
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
fn cmd_tournament(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let spec = doma_analysis::tournament::TournamentSpec {
        n: opts.num("n")?,
        len: opts.num("len")?,
        seed: opts.num("seed")?,
    };
    let cells = doma_analysis::tournament::run_tournament(&spec)?;
    let json = doma_analysis::tournament::render_json(&spec, &cells);
    if opts.value("format") == Some("json") {
        write!(out, "{json}")?;
    } else {
        writeln!(
            out,
            "tournament: n={} len={} seed={} ({} cells)",
            spec.n,
            spec.len,
            spec.seed,
            cells.len()
        )?;
        write!(out, "{}", doma_analysis::tournament::render_table(&cells))?;
    }
    if let Some(path) = opts.value("out") {
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
fn cmd_cluster(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let target = opts.target(targets_help())?;
    let kind = doma_net::TransportKind::parse(opts.value("transport").unwrap_or_default())
        .ok_or("unknown --transport")?;
    let scenarios = match target {
        "all" => builtins()?,
        _ => vec![resolve_target(opts, target, "entrant")?],
    };
    let mut diverged = 0;
    for mut scenario in scenarios {
        if target == "all" && !scenario.is_failure_free() {
            writeln!(
                out,
                "cluster {}: skipped (scenario injects faults; the real runtime is failure-free)",
                scenario.name
            )?;
            continue;
        }
        if opts.given("nodes") {
            let n = opts.num("nodes")?;
            scenario.n = n;
            scenario = Scenario::parse(&scenario.to_toml())
                .map_err(|e| format!("{} --nodes {n}: {}", scenario.name, e.message))?;
        }
        match doma_analysis::cluster::run_twin(&scenario, kind) {
            Ok(report) => {
                write!(out, "{}", report.render())?;
                diverged += usize::from(!report.matches());
            }
            Err(e) if e.starts_with("sockets unavailable") => {
                writeln!(out, "notice: {e}; cluster run skipped")?;
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        }
    }
    match diverged {
        0 => Ok(()),
        _ => Err(format!("cluster diverged from the sim twin in {diverged} scenario(s)").into()),
    }
}

/// Runs a declarative scenario (builtin by name, or a `.toml` file by
/// path) through the protocol simulator with obs attached, audits its
/// expected-invariant block, and prints the report. `scenario list`
/// prints the builtin roster; `scenario all` replays every builtin and
/// fails if any expectation (golden digest included) is violated.
fn cmd_scenario(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let names = doma_scenario::builtin::names();
    let target = opts.target(format!("builtins: {}", names.join(", ")))?;
    let json = opts.value("format") == Some("json");
    if target == "list" {
        let roster = builtins()?;
        if !json {
            for s in &roster {
                writeln!(out, "{:<22} {}", s.name, s.description)?;
            }
            return Ok(());
        }
        let rows: Vec<String> = (roster.iter())
            .map(|s| {
                let (name, description) = (escape(&s.name), escape(&s.description));
                format!(r#"{{"name": "{name}", "description": "{description}"}}"#)
            })
            .collect();
        return Ok(writeln!(out, "[\n  {}\n]", rows.join(",\n  "))?);
    }
    let scenarios = match target {
        "all" => builtins()?,
        _ => vec![load_scenario(target)?],
    };
    let baseline = (opts
        .value("diff")
        .map(|path| std::fs::read_to_string(path).map_err(|e| format!("--diff {path}: {e}"))))
    .transpose()?;
    let mut failed = Vec::new();
    let mut json_rows = Vec::new();
    let mut diffs = Vec::new();
    for scenario in &scenarios {
        let report = doma_scenario::run(scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
        match json {
            true => json_rows.push(report.render_json()),
            false => write!(out, "{}", report.render_table())?,
        }
        if let Some(baseline_text) = &baseline {
            let d =
                obsdiff::diff_texts(baseline_text, &report.snapshot_json, Some(&report.scenario))
                    .map_err(|e| format!("--diff {}: {e}", report.scenario))?;
            diffs.push(format!("{}: {}", report.scenario, obsdiff::render(&d)));
        }
        if !report.passed() {
            let violations = report.violations.join("; ");
            failed.push(format!("{}: {violations}", report.scenario));
        }
    }
    if json {
        writeln!(out, "[\n  {}\n]", json_rows.join(",\n  "))?;
    }
    for diff in &diffs {
        write!(out, "{diff}")?;
    }
    if !failed.is_empty() {
        return Err(format!("scenario expectations failed:\n  {}", failed.join("\n  ")).into());
    }
    Ok(())
}

/// `domactl repro [<experiment>|all] [--fast]` — runs the experiment
/// roster and prints the reproduction document (`repro all` is
/// `repro_full_output.md`, `repro all --fast` is `tests/golden/repro_fast.md`).
fn cmd_repro(opts: &Opts, out: &mut dyn Write) -> Outcome {
    let which = opts.operands.first().map_or("all", String::as_str);
    let fast = opts.given("fast");
    let reports = doma_analysis::experiments::run(which, fast)?;
    let doc = doma_analysis::experiments::render(&reports, fast);
    Ok(write!(out, "{doc}")?)
}

/// Parses `args` and runs the command into `out`. A reader that closes
/// `out` early has read all it wanted: that run ends cleanly.
fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let opts = parse_args(args)?;
    let Err(e) = (opts.command.run)(&opts, out).and_then(|()| Ok(out.flush()?)) else {
        return Ok(());
    };
    match e.downcast_ref::<std::io::Error>().map(std::io::Error::kind) {
        Some(ErrorKind::BrokenPipe) => Ok(()),
        _ => Err(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout()) {
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

    fn parsed(line: &str) -> Opts {
        parse_args(&shell_words(line)).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// The parse error of `domactl <line>`.
    fn rejected(line: &str) -> String {
        parse_args(&shell_words(line)).err().expect(line)
    }

    /// What `domactl <line>` prints, or its error.
    fn domactl(line: &str) -> Result<String, String> {
        let mut out = Vec::new();
        run(&shell_words(line), &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// Splits a command line as a shell would, after the usage text's own
    /// conventions: `[...]` is optional, `<...>` is one value, and `a|b`
    /// and `[--a x | --b y]` are choices whose first entry is taken.
    fn shell_words(line: &str) -> Vec<String> {
        let mut line = line.to_string();
        while let Some(at) = line.find(" | ") {
            let end = line[at..].find(']').map_or(line.len(), |end| at + end);
            line.replace_range(at..end, "");
        }
        let line = line.replace(['[', ']'], " ").replace(['<', '>'], "\"");
        let words = line
            .split('"')
            .enumerate()
            .flat_map(|(i, part)| match i % 2 {
                1 => vec![part],
                _ => part.split_whitespace().collect(),
            });
        words
            .map(|w| w.split('|').next().unwrap_or(w).to_string())
            .collect()
    }

    #[test]
    fn parser_accepts_flags_and_command() {
        let o = parsed("cost --cc 0.5 --verbose --algo da");
        assert_eq!(o.command.name, "cost");
        assert!(o.given("verbose"));
        assert_eq!(o.value("algo"), Some("da"));
        assert_eq!(o.num::<f64>("cc").unwrap(), 0.5);
        assert_eq!(o.num::<f64>("cd").unwrap(), 1.0);
        // `repro` takes at most one experiment name and one bare `--fast`.
        for (line, which, fast) in [
            ("repro", None, false),
            ("repro --fast", None, true),
            ("repro fig1", Some("fig1"), false),
            ("repro --fast fig1", Some("fig1"), true),
        ] {
            let o = parsed(line);
            let given = (o.operands.first().map(String::as_str), o.given("fast"));
            assert_eq!(given, (which, fast), "{line}");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        rejected("");
        rejected("cost --cc");
        // Positional arity is per-command: `scenario` takes one operand,
        // `cost` takes none, `obs diff` takes two.
        assert_eq!(parsed("scenario flash-crowd").operands, ["flash-crowd"]);
        rejected("cost stray stray2");
        rejected("cost stray");
        rejected("scenario a b");
        rejected("trace a b");
        assert!(parsed("cost --cc abc").num::<f64>("cc").is_err());
        // A schedule comes from one of --schedule and --file, never both.
        let e = rejected("stats --schedule \"r2 r2 w2\" --file t.txt");
        assert_eq!(e, "--schedule and --file both given: give one");
        // A flag the command never reads is an error naming the accepted
        // ones.
        for (line, flag) in [
            (
                "tournament --sead 3",
                "--sead (accepted: --n, --len, --seed,",
            ),
            ("obs --schedule r1 --formt table", "--formt"),
            ("cost --schedule r1 --alog sa", "--alog"),
            ("stats --schedule r1 --verbose", "--verbose"),
            ("obs diff a b --schedule r1", "--schedule"),
        ] {
            let e = rejected(line);
            assert!(e.contains(flag) && e.contains("(accepted: --"), "{e}");
        }
        // An unknown command is a parse error that prints the usage.
        let e = rejected("bogus --x 1");
        assert!(e.starts_with("unknown command 'bogus'\nusage"), "{e}");
        // A misspelt or repeated flag, a second operand, a short option or
        // a value outside a flag's choices is a usage error, never a
        // silently different run.
        for (line, error) in [
            ("repro --fsat", "flag --fsat needs a value"),
            ("repro --fsat x", "repro does not take --fsat"),
            ("repro fig1 fig2", "unexpected argument 'fig2'"),
            ("repro fig1 --fast --fast", "flag --fast given twice"),
            ("repro -f", "unexpected argument '-f'"),
            ("cost --verbose --verbose", "flag --verbose given twice"),
            ("tournament --n 5 --n 6", "flag --n given twice"),
            ("cost --fast", "cost does not take --fast"),
            (
                "cost --algo zzz",
                "unknown --algo 'zzz' (expected one of: all, sa, da, opt)",
            ),
            (
                "cluster all --transport udp",
                "--transport 'udp' (expected one of: uds, tcp)",
            ),
        ] {
            let e = rejected(line);
            assert!(e.contains(error), "{line}: {e}");
        }
    }

    /// Every usage line the table generates parses, each alternative of
    /// a `[--a x | --b y]` group on its own, and so does every `domactl`
    /// command line in the docs and scripts that drive it (`\`-continued
    /// lines joined; a redirect, pipe or comment ends one). A line that
    /// showed two exclusive flags as independent brackets would give both
    /// and be rejected.
    #[test]
    fn every_documented_usage_line_parses() {
        for command in COMMANDS {
            let line = command.usage();
            let line = line.strip_prefix("domactl ").unwrap();
            let mut readings = vec![line.to_string()];
            for (a, b) in command.exclusions() {
                let shown = command.flag(a).unwrap().usage();
                let group = format!("[--{a}{shown} | --{b}");
                assert!(line.contains(&group), "{line}");
                readings.push(line.replace(&group, &format!("[--{b}")));
            }
            for reading in readings {
                assert_eq!(parsed(&reading).command.name, command.name, "{reading}");
            }
        }
        let docs = [
            include_str!("../../../../README.md"),
            include_str!("../../../../EXPERIMENTS.md"),
            include_str!("../../../../scripts/verify.sh"),
            include_str!("../../../../.claude/skills/verify/SKILL.md"),
        ];
        let mut lines = Vec::new();
        for doc in docs.map(|doc| doc.replace("\\\n", " ")) {
            for line in doc.lines() {
                let invocation = ["release/domactl ", "\"$domactl\" "]
                    .into_iter()
                    .find_map(|program| line.split_once(program))
                    .or_else(|| line.split_once("--bin domactl")?.1.split_once("-- "));
                if let Some((_, rest)) = invocation {
                    lines.push(
                        rest.split(['>', '|', '#', '`'])
                            .next()
                            .unwrap_or(rest)
                            .to_string(),
                    );
                }
            }
        }
        assert!(lines.len() >= 30, "{lines:?}");
        for line in lines {
            parsed(&line);
        }
    }

    /// The table accepts exactly the (command, flag) pairs and operand
    /// counts the hand-written parser it replaced accepted (`obs` took up
    /// to three operands there: `diff <a> <b>`), and its defaults agree
    /// with its choices, across rows, and with the library's own.
    #[test]
    fn the_table_accepts_what_the_cli_always_accepted() {
        let before = [
            ("cost", 0, "schedule file algo model cc cd t n verbose"),
            ("stats", 0, "schedule file"),
            ("simulate", 0, "schedule file algo n"),
            ("obs", 0, "schedule file algo n format events"),
            ("obs diff", 2, "scenario"),
            ("generate", 0, "workload n len seed read-fraction"),
            ("tournament", 0, "n len seed out format"),
            ("scenario", 1, "format diff"),
            (
                "cluster",
                1,
                "nodes transport entrant n len seed read-fraction",
            ),
            (
                "trace",
                1,
                "format top events algo n len seed read-fraction",
            ),
            ("repro", 1, "fast"),
        ];
        assert_eq!(COMMANDS.len(), before.len());
        for (command, (name, arity, flags)) in COMMANDS.iter().zip(before) {
            let keys: Vec<&str> = command.flags.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                (command.name, command.operands.len(), keys.join(" ")),
                (name, arity, flags.to_string())
            );
            for &(key, value) in command.flags {
                // A switch is a switch in every row that names it.
                let switch = matches!(value, Switch);
                let mut rows = COMMANDS.iter().filter_map(|c| c.flag(key));
                assert!(rows.all(|v| matches!(v, Switch) == switch), "--{key}");
                if let Some(choices) = value.choices() {
                    assert_eq!(choices.first().copied(), value.default(), "--{key}");
                }
            }
        }
        let spec = doma_analysis::tournament::TournamentSpec::default();
        let o = parsed("tournament");
        let table = (
            o.num("n").unwrap(),
            o.num("len").unwrap(),
            o.num("seed").unwrap(),
        );
        assert_eq!(table, (spec.n, spec.len, spec.seed));
    }

    #[test]
    fn parser_accepts_multi_positional_obs_diff() {
        let o = parsed("obs diff a.json b.json");
        assert_eq!(
            (o.command.name, o.operands),
            ("obs diff", shell_words("a.json b.json"))
        );
        rejected("obs diff a b c");
        // `obs` with a non-diff positional is a parse error.
        let e = rejected("obs bogus --schedule r1");
        assert!(e.contains("unexpected argument 'bogus'"), "{e}");
        // `obs diff` with fewer than two files is a usage error.
        let e = domactl("obs diff only-one").unwrap_err();
        assert!(
            e.starts_with("usage: domactl obs diff <a.json> <b.json>"),
            "{e}"
        );
    }

    #[test]
    fn schedule_and_model_extraction() {
        let o = parsed("cost --schedule \"r1 w2\" --model mc --cc 0.2 --cd 0.9");
        assert_eq!(o.schedule().unwrap().len(), 2);
        assert_eq!(o.model().unwrap().cio(), 0.0);
        rejected("cost --model xy --schedule r1");
        assert!(parsed("cost").schedule().is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        domactl("cost --schedule \"r1 r1 r2 w2 r2\"").unwrap();
        domactl("stats --schedule \"r1 r1 w0 r2\"").unwrap();
        // `--n` defaults to the schedule's processors, at least 3.
        let sim = domactl("simulate --schedule \"r2 w3 r2\" --algo da").unwrap();
        assert!(
            sim.starts_with("DA protocol on 4 simulated nodes:"),
            "{sim}"
        );
        domactl("generate --workload zipf --len 10").unwrap();
        domactl("obs --schedule \"r2 w3 r2\" --algo sa").unwrap();
        // `--algo` takes any roster entrant, and names the roster when it
        // rejects one.
        for command in ["simulate", "obs"] {
            domactl(&format!(
                "{command} --schedule \"r2 w3 r2\" --algo cost-oblivious"
            ))
            .unwrap();
        }
        let e = domactl("simulate --schedule r2 --algo opt").unwrap_err();
        for entrant in Entrant::ALL {
            assert!(e.contains(entrant.as_str()), "{e}");
        }
        domactl("obs --schedule \"r2 w3 r2\" --format table").unwrap();
    }

    /// A reader that has gone: every write fails as a closed pipe does.
    struct ClosedPipe(ErrorKind);

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `domactl generate --len 5000 | head -c 10` exits 0: a closed
    /// stdout ends the run cleanly, and any other write failure is still
    /// an error.
    #[test]
    fn a_closed_stdout_ends_the_run_cleanly() {
        let argv = shell_words("generate --len 5000");
        assert_eq!(run(&argv, &mut ClosedPipe(ErrorKind::BrokenPipe)), Ok(()));
        assert!(run(&argv, &mut ClosedPipe(ErrorKind::StorageFull)).is_err());
    }

    #[test]
    fn tournament_runs_and_rejects_bad_format() {
        domactl("tournament --n 5 --len 12 --seed 3").unwrap();
        let e = domactl("tournament --n 5 --len 12 --format yaml");
        assert!(e.unwrap_err().contains("--format"));
    }

    #[test]
    fn scenario_lists_and_runs_builtins() {
        domactl("scenario list").unwrap();
        for (line, error) in [
            ("scenario", "builtins:"),
            ("scenario flash-crowd --format yaml", "--format"),
            ("scenario no-such-scenario", "unknown builtin"),
            ("scenario /no/such/file.toml", "cannot read"),
        ] {
            let e = domactl(line).unwrap_err();
            assert!(e.contains(error), "{line}: {e}");
        }
    }

    /// `scenario list --format json` is the text roster as a JSON array
    /// of `{"name", "description"}`, in the same order.
    #[test]
    fn scenario_list_prints_json_when_asked() {
        use doma_analysis::jsonv::Jv;
        let text = domactl("scenario list").unwrap();
        let json = Jv::parse(&domactl("scenario list --format json").unwrap()).unwrap();
        let rows = json.as_array().expect("an array");
        let roster = builtins().unwrap();
        assert_eq!(
            (rows.len(), text.lines().count()),
            (roster.len(), roster.len())
        );
        for ((row, line), s) in rows.iter().zip(text.lines()).zip(&roster) {
            assert_eq!(row.get("name").and_then(Jv::as_str), Some(s.name.as_str()));
            let description = row.get("description").and_then(Jv::as_str);
            assert_eq!(description, Some(s.description.as_str()));
            assert_eq!(line, format!("{:<22} {}", s.name, s.description));
        }
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
        let o = parsed(&format!("cost --file {}", path.display()));
        assert_eq!(o.schedule().unwrap(), schedule);
        let missing = parsed("cost --file /no/such/trace.txt");
        assert!(missing.schedule().unwrap_err().starts_with("--file "));
    }

    /// `obs` and `trace` print the same bytes on every run of the same
    /// inputs, and each export carries its contract's keys: the obs
    /// snapshot, the Chrome trace-event JSON and the slowest-K report.
    #[test]
    fn obs_and_trace_exports_are_byte_stable() {
        for (line, keys) in [
            (
                "obs --schedule \"r2 w3 r2 r1 w0 r3 w2 r0\" --algo da",
                &["\"metrics\"", "\"events\"", "\"dropped_events\""][..],
            ),
            (
                "trace append-only-6-2 --format chrome",
                &[
                    "\"traceEvents\"",
                    "\"ph\": \"X\"",
                    "\"protocol.request\"",
                    "\"cp\": \"1\"",
                ],
            ),
            ("trace append-only-6-2 --top 5", &["slowest 5 of"]),
        ] {
            let first = domactl(line).unwrap();
            assert_eq!(
                first,
                domactl(line).unwrap(),
                "{line} differs across identical runs"
            );
            for key in keys {
                assert!(first.contains(key), "{line} output lacks {key}");
            }
        }
    }

    #[test]
    fn obs_rejects_bad_format() {
        let e = domactl("obs --schedule r1 --format xml").unwrap_err();
        assert!(
            e.contains("unknown --format 'xml' (expected one of: json, table)"),
            "{e}"
        );
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
        domactl("trace append-only-6-2").unwrap();
        domactl("trace append-only-6-2 --format chrome").unwrap();
        domactl("trace uniform --len 12 --algo sa --top 3").unwrap();
        domactl("trace zipf --len 12 --algo mobile-mirror").unwrap();
        for (line, errors) in [
            (
                "trace zipf --algo opt",
                &["--algo 'opt' (expected one of: da, sa,"][..],
            ),
            ("trace no-such-target", &["unknown builtin", "workloads:"]),
            ("trace uniform --format svg", &["--format"]),
            ("trace", &["need a target"]),
        ] {
            let e = domactl(line).unwrap_err();
            assert!(errors.iter().all(|error| e.contains(error)), "{line}: {e}");
        }
    }

    #[test]
    fn obs_diff_detects_changes_and_clean_runs() {
        let snap_a = "{\"dropped_events\": 0, \"events\": [], \"metrics\": \
             [{\"component\": \"p\", \"name\": \"x\", \"labels\": {}, \
             \"kind\": \"counter\", \"value\": 1}]}";
        let snap_b = snap_a.replace("\"value\": 1", "\"value\": 2");
        let (a, b) = (
            temp_file("diff_a.json", snap_a),
            temp_file("diff_b.json", &snap_b),
        );
        let (a, b) = (a.display(), b.display());
        domactl(&format!("obs diff {a} {a}")).unwrap();
        assert!(domactl(&format!("obs diff {a} {b}"))
            .unwrap_err()
            .contains("differ"));
    }

    #[test]
    fn scenario_diff_flag_compares_against_a_baseline() {
        let scenario = doma_scenario::builtin::load("append-only-6-2").unwrap();
        let report = doma_scenario::run(&scenario).unwrap();
        let baseline = temp_file("scenario_baseline.json", &report.snapshot_json);
        domactl(&format!(
            "scenario append-only-6-2 --diff {}",
            baseline.display()
        ))
        .unwrap();
        let e = domactl("scenario append-only-6-2 --diff /no/such/baseline.json");
        assert!(e.unwrap_err().contains("--diff"));
    }

    /// `generate` takes every generator kind by the name a scenario file
    /// gives it, read off the builtins' phases.
    #[test]
    fn generate_takes_the_scenario_file_workload_names() {
        let phases = builtins().unwrap().into_iter().flat_map(|s| s.phases);
        let names: Vec<&str> = phases
            .map(|p| p.workload.name())
            .filter(|n| *n != "trace")
            .collect();
        assert!(names.contains(&"append-only"), "{names:?}");
        for name in names {
            domactl(&format!("generate --workload {name} --len 8")).unwrap();
        }
        let e = domactl("generate --workload append").unwrap_err();
        assert!(e.contains("append-only"), "{e}");
    }

    /// Lint and the socket twin each have one path: `lint` is no command,
    /// `scenario` takes no `--transport`, and `cluster` runs `all`.
    #[test]
    fn one_command_per_job() {
        let e = rejected("scenario all --transport uds");
        assert!(e.contains("does not take --transport"), "{e}");
        let e = domactl("lint").unwrap_err();
        assert!(e.starts_with("unknown command 'lint'"), "{e}");
        // Sockets refused by the platform print a notice and pass.
        domactl("cluster all --transport uds").unwrap();
    }

    /// `cluster --nodes N` resizes the scenario before validation: a size
    /// its file could not declare fails naming the broken rule.
    #[test]
    fn cluster_nodes_go_through_the_scenario_validator() {
        for (line, rule) in [
            ("cluster uniform --nodes 2", "'n' must be in 3..=64"),
            ("cluster mobile-handoff --nodes 3", "mobile universe"),
        ] {
            let e = domactl(line).unwrap_err();
            assert!(e.contains("--nodes") && e.contains(rule), "{line}: {e}");
        }
    }

    #[test]
    fn cost_rejects_bad_t_and_algo() {
        assert!(domactl("cost --schedule r1 --t 9").is_err());
        assert!(domactl("cost --schedule r1 --algo zzz").is_err());
    }
}
