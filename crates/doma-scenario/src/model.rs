//! The typed scenario model: what a scenario file *means* once parsed.
//!
//! [`Scenario::parse`] turns TOML-subset text into a fully validated
//! scenario (every range and cross-field constraint checked, every error
//! carrying the offending source line); [`Scenario::to_toml`] is the
//! deterministic inverse — `parse(to_toml(s)) == s` for every valid
//! scenario, a property the test wall checks with random configs.

use crate::toml::{self, Entry, Table, Value};
use crate::ScenarioError;
use doma_core::{CostModel, Environment, MAX_PROCESSORS};
use doma_protocol::Entrant;
use doma_sim::{FaultAction, FaultRule, LinkFilter, MsgKind, NodeId, Partition};

/// The request mix of one phase.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// I.i.d. uniform requests with a read fraction.
    Uniform {
        /// Probability a request is a read.
        read_fraction: f64,
    },
    /// Zipf-skewed issuers.
    Zipf {
        /// Skew exponent (0 = uniform).
        theta: f64,
        /// Probability a request is a read.
        read_fraction: f64,
    },
    /// A relocating read hotspot (§5.1 regular patterns).
    Hotspot {
        /// Requests between hotspot relocations.
        phase_len: usize,
        /// Probability a request comes from the hotspot.
        hot_prob: f64,
    },
    /// Freshly re-randomized weights every few requests (§5.1 chaotic).
    Chaotic {
        /// Requests between weight redraws.
        redraw_every: usize,
    },
    /// The §1.1/§2 mobile location-object scenario.
    Mobile {
        /// Number of cells the user roams between.
        cells: usize,
        /// Number of stationary callers.
        callers: usize,
        /// Probability the user moves before a request.
        move_prob: f64,
        /// Probability a request is a read (a call lookup).
        read_fraction: f64,
    },
    /// The §6.2 append-only/standing-order model.
    AppendOnly {
        /// Earth stations generating new versions.
        generators: usize,
        /// Mean reads issued per generated version.
        reads_per_write: f64,
    },
    /// Verbatim replay of an inline trace (the paper's `r<i>`/`w<i>`
    /// notation).
    Trace {
        /// The trace text; length comes from the token count.
        text: String,
    },
}

impl WorkloadSpec {
    /// The workload's name as written in scenario files.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Uniform { .. } => "uniform",
            WorkloadSpec::Zipf { .. } => "zipf",
            WorkloadSpec::Hotspot { .. } => "hotspot",
            WorkloadSpec::Chaotic { .. } => "chaotic",
            WorkloadSpec::Mobile { .. } => "mobile",
            WorkloadSpec::AppendOnly { .. } => "append-only",
            WorkloadSpec::Trace { .. } => "trace",
        }
    }
}

/// One phase of the scenario's request mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// A short label ("morning", "flash", …).
    pub name: String,
    /// Requests generated in this phase (0 for trace phases, whose
    /// length is the trace's token count).
    pub len: usize,
    /// The phase's generator.
    pub workload: WorkloadSpec,
}

/// The window of a `[[fault]]` rule written without one: armed for the
/// whole run, as [`FaultRule::always`] arms it.
const ALWAYS: (u64, u64) = (0, u64::MAX);

/// The expected-invariant block checked after the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// Ceiling on `algo_cost / OPT` under the scenario's model.
    pub max_ratio_vs_opt: Option<f64>,
    /// Floor on valid replicas at quiescence (t-availability).
    pub min_valid_holders: Option<usize>,
    /// Ceiling on the obs `protocol/scheme_churn` counter.
    pub max_scheme_churn: Option<u64>,
    /// Ceiling on messages lost to faults (0 for failure-free runs).
    pub max_dropped_messages: u64,
    /// Exact number of completed reads, when pinned.
    pub reads_completed: Option<u64>,
    /// Whether the obs registry's summed `protocol/cost.*` counters must
    /// equal the simulator's exact tallies.
    pub obs_parity: bool,
}

impl Default for Expect {
    fn default() -> Self {
        Expect {
            max_ratio_vs_opt: None,
            min_valid_holders: None,
            max_scheme_churn: None,
            max_dropped_messages: 0,
            reads_completed: None,
            obs_parity: true,
        }
    }
}

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (builtins are addressed by it).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Processors in the simulated cluster.
    pub n: usize,
    /// Master seed: phase generators and fault streams derive from it.
    pub seed: u64,
    /// The allocator under test.
    pub entrant: Entrant,
    /// Obs event-log capacity.
    pub events: usize,
    /// The cost model the run is priced under: `environment = "sc"`
    /// (stationary, cio = 1) or `"mc"` (mobile, cio = 0), with the unit
    /// costs `cc ≤ cd`.
    pub model: CostModel,
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
    /// The `[[fault]]` message-fault rules, in file order; the runner
    /// installs them into a [`doma_sim::FaultPlan`] seeded by
    /// [`Scenario::seed`].
    pub faults: Vec<FaultRule>,
    /// The `[[fault]]` partitions (`kind = "partition"`), in file order.
    pub partitions: Vec<Partition>,
    /// The expected-invariant block.
    pub expect: Expect,
    /// Pinned golden obs digest (`"0x…"`, 16 hex digits), if any.
    pub golden: Option<String>,
}

const SCENARIO_KEYS: &[&str] = &["name", "description", "n", "seed", "entrant", "events"];
const MODEL_KEYS: &[&str] = &["environment", "cc", "cd"];
const PHASE_COMMON_KEYS: &[&str] = &["name", "workload", "len"];
const FAULT_KEYS: &[&str] = &[
    "kind",
    "window",
    "from",
    "to",
    "msg",
    "probability",
    "budget",
    "amount",
    "side",
];
const EXPECT_KEYS: &[&str] = &[
    "max_ratio_vs_opt",
    "min_valid_holders",
    "max_scheme_churn",
    "max_dropped_messages",
    "reads_completed",
    "obs_parity",
];

fn fail(line: usize, message: impl Into<String>) -> ScenarioError {
    ScenarioError::at(line, message)
}

fn check_keys(table: &Table, allowed: &[&str]) -> Result<(), ScenarioError> {
    for entry in &table.entries {
        if !allowed.contains(&entry.key.as_str()) {
            return Err(fail(
                entry.line,
                format!(
                    "unknown key '{}' in [{}] (allowed: {})",
                    entry.key,
                    table.name,
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn required<'a>(table: &'a Table, key: &str) -> Result<&'a Entry, ScenarioError> {
    table
        .get(key)
        .ok_or_else(|| fail(table.line, format!("[{}] is missing '{key}'", table.name)))
}

fn as_str(entry: &Entry) -> Result<&str, ScenarioError> {
    match &entry.value {
        Value::Str(s) => Ok(s),
        other => Err(fail(
            entry.line,
            format!("'{}' must be a string, got {}", entry.key, other.kind()),
        )),
    }
}

fn as_u64(entry: &Entry) -> Result<u64, ScenarioError> {
    match entry.value {
        Value::Int(v) if v >= 0 => Ok(v as u64),
        _ => Err(fail(
            entry.line,
            format!(
                "'{}' must be a non-negative integer, got {}",
                entry.key,
                entry.value.kind()
            ),
        )),
    }
}

fn as_usize(entry: &Entry) -> Result<usize, ScenarioError> {
    Ok(as_u64(entry)? as usize)
}

fn as_f64(entry: &Entry) -> Result<f64, ScenarioError> {
    match entry.value {
        Value::Float(v) => Ok(v),
        Value::Int(v) => Ok(v as f64),
        _ => Err(fail(
            entry.line,
            format!(
                "'{}' must be a number, got {}",
                entry.key,
                entry.value.kind()
            ),
        )),
    }
}

fn as_bool(entry: &Entry) -> Result<bool, ScenarioError> {
    match entry.value {
        Value::Bool(v) => Ok(v),
        _ => Err(fail(
            entry.line,
            format!(
                "'{}' must be a boolean, got {}",
                entry.key,
                entry.value.kind()
            ),
        )),
    }
}

fn as_window(entry: &Entry) -> Result<(u64, u64), ScenarioError> {
    let items = match &entry.value {
        Value::Array(items) if items.len() == 2 => items,
        _ => {
            return Err(fail(
                entry.line,
                format!("'{}' must be a two-element array [start, end]", entry.key),
            ))
        }
    };
    let bound = |v: &Value| match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(fail(
            entry.line,
            format!("'{}' bounds must be non-negative integers", entry.key),
        )),
    };
    let (start, end) = (bound(&items[0])?, bound(&items[1])?);
    if start >= end {
        return Err(fail(
            entry.line,
            format!("'{}' window is empty ({start} >= {end})", entry.key),
        ));
    }
    Ok((start, end))
}

fn as_usize_array(entry: &Entry) -> Result<Vec<usize>, ScenarioError> {
    let items = match &entry.value {
        Value::Array(items) => items,
        _ => {
            return Err(fail(
                entry.line,
                format!("'{}' must be an array of processor indices", entry.key),
            ))
        }
    };
    items
        .iter()
        .map(|v| match v {
            Value::Int(i) if *i >= 0 => Ok(*i as usize),
            _ => Err(fail(
                entry.line,
                format!("'{}' entries must be non-negative integers", entry.key),
            )),
        })
        .collect()
}

fn fraction(entry: &Entry) -> Result<f64, ScenarioError> {
    let v = as_f64(entry)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(fail(
            entry.line,
            format!("'{}' must be in [0, 1], got {v}", entry.key),
        ));
    }
    Ok(v)
}

fn parse_phase(table: &Table, n: usize) -> Result<Phase, ScenarioError> {
    let name = as_str(required(table, "name")?)?.to_string();
    let kind_entry = required(table, "workload")?;
    let kind = as_str(kind_entry)?;
    let mut allowed: Vec<&str> = PHASE_COMMON_KEYS.to_vec();
    let workload = match kind {
        "uniform" => {
            allowed.push("read_fraction");
            WorkloadSpec::Uniform {
                read_fraction: fraction(required(table, "read_fraction")?)?,
            }
        }
        "zipf" => {
            allowed.extend(["theta", "read_fraction"]);
            let theta_entry = required(table, "theta")?;
            let theta = as_f64(theta_entry)?;
            if !theta.is_finite() || theta < 0.0 {
                return Err(fail(theta_entry.line, "'theta' must be >= 0"));
            }
            WorkloadSpec::Zipf {
                theta,
                read_fraction: fraction(required(table, "read_fraction")?)?,
            }
        }
        "hotspot" => {
            allowed.extend(["phase_len", "hot_prob"]);
            let pl_entry = required(table, "phase_len")?;
            let phase_len = as_usize(pl_entry)?;
            if phase_len == 0 {
                return Err(fail(pl_entry.line, "'phase_len' must be >= 1"));
            }
            WorkloadSpec::Hotspot {
                phase_len,
                hot_prob: fraction(required(table, "hot_prob")?)?,
            }
        }
        "chaotic" => {
            allowed.push("redraw_every");
            let re_entry = required(table, "redraw_every")?;
            let redraw_every = as_usize(re_entry)?;
            if redraw_every == 0 {
                return Err(fail(re_entry.line, "'redraw_every' must be >= 1"));
            }
            WorkloadSpec::Chaotic { redraw_every }
        }
        "mobile" => {
            allowed.extend(["cells", "callers", "move_prob", "read_fraction"]);
            let cells_entry = required(table, "cells")?;
            let cells = as_usize(cells_entry)?;
            let callers_entry = required(table, "callers")?;
            let callers = as_usize(callers_entry)?;
            if cells == 0 || callers == 0 {
                return Err(fail(cells_entry.line, "'cells' and 'callers' must be >= 1"));
            }
            if 1 + cells + callers > n {
                return Err(fail(
                    cells_entry.line,
                    format!(
                        "mobile universe 1 + {cells} cells + {callers} callers exceeds n = {n}"
                    ),
                ));
            }
            WorkloadSpec::Mobile {
                cells,
                callers,
                move_prob: fraction(required(table, "move_prob")?)?,
                read_fraction: fraction(required(table, "read_fraction")?)?,
            }
        }
        "append-only" => {
            allowed.extend(["generators", "reads_per_write"]);
            let gen_entry = required(table, "generators")?;
            let generators = as_usize(gen_entry)?;
            if generators == 0 || generators > n {
                return Err(fail(
                    gen_entry.line,
                    format!("'generators' must be in 1..={n}"),
                ));
            }
            let rpw_entry = required(table, "reads_per_write")?;
            let reads_per_write = as_f64(rpw_entry)?;
            if !reads_per_write.is_finite() || reads_per_write < 0.0 {
                return Err(fail(rpw_entry.line, "'reads_per_write' must be >= 0"));
            }
            WorkloadSpec::AppendOnly {
                generators,
                reads_per_write,
            }
        }
        "trace" => {
            allowed.push("trace");
            let trace_entry = required(table, "trace")?;
            let text = as_str(trace_entry)?.to_string();
            let schedule = doma_workload::trace::read_trace(text.as_bytes())
                .map_err(|e| fail(trace_entry.line, format!("bad trace: {e}")))?;
            if schedule.min_processors() > n {
                return Err(fail(
                    trace_entry.line,
                    format!(
                        "trace uses {} processors but n = {n}",
                        schedule.min_processors()
                    ),
                ));
            }
            if table.get("len").is_some() {
                return Err(fail(
                    table.get("len").map(|e| e.line).unwrap_or(table.line),
                    "trace phases take their length from the trace text; drop 'len'",
                ));
            }
            WorkloadSpec::Trace { text }
        }
        other => {
            return Err(fail(
                kind_entry.line,
                format!(
                    "unknown workload '{other}' (expected uniform, zipf, hotspot, \
                     chaotic, mobile, append-only or trace)"
                ),
            ))
        }
    };
    let len = match &workload {
        WorkloadSpec::Trace { .. } => 0,
        _ => {
            let len_entry = required(table, "len")?;
            let len = as_usize(len_entry)?;
            if len == 0 {
                return Err(fail(len_entry.line, "'len' must be >= 1"));
            }
            len
        }
    };
    check_keys(table, &allowed)?;
    Ok(Phase {
        name,
        len,
        workload,
    })
}

/// Parses one `[[fault]]` table into a rule or a partition.
fn parse_fault(
    table: &Table,
    n: usize,
    rules: &mut Vec<FaultRule>,
    partitions: &mut Vec<Partition>,
) -> Result<(), ScenarioError> {
    check_keys(table, FAULT_KEYS)?;
    let kind_entry = required(table, "kind")?;
    let kind = as_str(kind_entry)?;
    if !["drop", "delay", "duplicate", "jitter", "partition"].contains(&kind) {
        return Err(fail(
            kind_entry.line,
            format!(
                "unknown fault kind '{kind}' (expected drop, delay, duplicate, jitter or partition)"
            ),
        ));
    }
    let window = table.get("window").map(as_window).transpose()?;
    let node = |key: &str| -> Result<Option<NodeId>, ScenarioError> {
        match table.get(key) {
            None => Ok(None),
            Some(entry) => {
                let v = as_usize(entry)?;
                if v >= n {
                    return Err(fail(
                        entry.line,
                        format!("'{key}' node {v} outside cluster of {n}"),
                    ));
                }
                Ok(Some(NodeId(v)))
            }
        }
    };
    let filter = LinkFilter {
        from: node("from")?,
        to: node("to")?,
        kind: match table.get("msg") {
            None => None,
            Some(entry) => Some(match as_str(entry)? {
                "control" => MsgKind::Control,
                "data" => MsgKind::Data,
                other => {
                    return Err(fail(
                        entry.line,
                        format!("'msg' must be control or data, got '{other}'"),
                    ))
                }
            }),
        },
    };
    let probability = match table.get("probability") {
        None => 1.0,
        Some(entry) => fraction(entry)?,
    };
    let budget = table.get("budget").map(as_u64).transpose()?;
    let amount = table.get("amount").map(as_u64).transpose()?;
    let side = match table.get("side") {
        None => Vec::new(),
        Some(entry) => {
            let side = as_usize_array(entry)?;
            if let Some(&bad) = side.iter().find(|&&p| p >= n) {
                return Err(fail(
                    entry.line,
                    format!("'side' node {bad} outside cluster of {n}"),
                ));
            }
            // A cut needs a node on each side, each named once.
            let mut distinct = side.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() < side.len() || distinct.len() == n {
                return Err(fail(
                    entry.line,
                    format!("'side' must name distinct nodes, and not all {n} of them"),
                ));
            }
            side
        }
    };

    if kind == "partition" {
        let Some(window) = window else {
            return Err(fail(table.line, "partitions require a 'window'"));
        };
        if side.is_empty() {
            return Err(fail(table.line, "partitions require a non-empty 'side'"));
        }
        for key in ["from", "to", "msg", "probability", "budget", "amount"] {
            if let Some(entry) = table.get(key) {
                return Err(fail(
                    entry.line,
                    format!("'{key}' does not apply to partitions"),
                ));
            }
        }
        partitions.push(Partition { window, side });
        return Ok(());
    }
    let action = match (kind, amount) {
        ("drop", None) => FaultAction::Drop,
        ("drop", Some(_)) => {
            return Err(fail(table.line, "'amount' does not apply to drop faults"))
        }
        (_, None) => {
            return Err(fail(
                table.line,
                format!("'{kind}' faults require an 'amount' of ticks"),
            ))
        }
        ("delay", Some(ticks)) => FaultAction::Delay(ticks),
        ("duplicate", Some(ticks)) => FaultAction::Duplicate(ticks),
        // `kind` was checked against the five names above.
        (_, Some(max)) => FaultAction::Jitter { max },
    };
    if !side.is_empty() {
        return Err(fail(table.line, "'side' only applies to partitions"));
    }
    rules.push(FaultRule {
        window: window.unwrap_or(ALWAYS),
        filter,
        action,
        probability,
        budget,
    });
    Ok(())
}

fn parse_expect(table: &Table, n: usize) -> Result<Expect, ScenarioError> {
    check_keys(table, EXPECT_KEYS)?;
    let mut expect = Expect::default();
    if let Some(entry) = table.get("max_ratio_vs_opt") {
        let v = as_f64(entry)?;
        if !v.is_finite() || v < 1.0 {
            return Err(fail(entry.line, "'max_ratio_vs_opt' must be >= 1"));
        }
        expect.max_ratio_vs_opt = Some(v);
    }
    if let Some(entry) = table.get("min_valid_holders") {
        let v = as_usize(entry)?;
        if v > n {
            return Err(fail(
                entry.line,
                format!("'min_valid_holders' {v} exceeds n = {n}"),
            ));
        }
        expect.min_valid_holders = Some(v);
    }
    expect.max_scheme_churn = table.get("max_scheme_churn").map(as_u64).transpose()?;
    if let Some(entry) = table.get("max_dropped_messages") {
        expect.max_dropped_messages = as_u64(entry)?;
    }
    expect.reads_completed = table.get("reads_completed").map(as_u64).transpose()?;
    if let Some(entry) = table.get("obs_parity") {
        expect.obs_parity = as_bool(entry)?;
    }
    Ok(expect)
}

impl Scenario {
    /// Parses and validates scenario text. Every error carries the
    /// offending 1-indexed source line.
    pub fn parse(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(src)?;
        for table in &doc.tables {
            match table.name.as_str() {
                "scenario" | "model" | "expect" | "golden" => {
                    if table.is_array {
                        return Err(fail(
                            table.line,
                            format!("[{}] is a single table, not [[{}]]", table.name, table.name),
                        ));
                    }
                }
                "phase" | "fault" => {
                    if !table.is_array {
                        return Err(fail(
                            table.line,
                            format!("[{}] must use the [[{}]] form", table.name, table.name),
                        ));
                    }
                }
                other => {
                    return Err(fail(
                        table.line,
                        format!(
                            "unknown table [{other}] (expected scenario, model, phase, \
                             fault, expect or golden)"
                        ),
                    ))
                }
            }
        }

        let scenario = doc
            .table("scenario")
            .ok_or_else(|| fail(1, "missing [scenario] table"))?;
        check_keys(scenario, SCENARIO_KEYS)?;
        let name = as_str(required(scenario, "name")?)?.to_string();
        if name.is_empty() {
            return Err(fail(scenario.line, "'name' must be non-empty"));
        }
        let description = as_str(required(scenario, "description")?)?.to_string();
        let n_entry = required(scenario, "n")?;
        let n = as_usize(n_entry)?;
        if !(3..=MAX_PROCESSORS).contains(&n) {
            return Err(fail(
                n_entry.line,
                format!("'n' must be in 3..={MAX_PROCESSORS}, got {n}"),
            ));
        }
        let seed = as_u64(required(scenario, "seed")?)?;
        let entrant_entry = required(scenario, "entrant")?;
        let entrant =
            Entrant::from_name(as_str(entrant_entry)?).map_err(|e| fail(entrant_entry.line, e))?;
        let events = match scenario.get("events") {
            None => 512,
            Some(entry) => {
                let v = as_usize(entry)?;
                if v == 0 {
                    return Err(fail(entry.line, "'events' must be >= 1"));
                }
                v
            }
        };

        let model = doc
            .table("model")
            .ok_or_else(|| fail(1, "missing [model] table"))?;
        check_keys(model, MODEL_KEYS)?;
        let env_entry = required(model, "environment")?;
        let build = match as_str(env_entry)? {
            "sc" => CostModel::stationary,
            "mc" => CostModel::mobile,
            other => {
                return Err(fail(
                    env_entry.line,
                    format!("'environment' must be sc or mc, got '{other}'"),
                ))
            }
        };
        let unit_cost = |key: &str| -> Result<f64, ScenarioError> {
            let entry = required(model, key)?;
            let v = as_f64(entry)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(fail(entry.line, format!("'{key}' must be > 0")));
            }
            Ok(v)
        };
        let (cc, cd) = (unit_cost("cc")?, unit_cost("cd")?);
        // Report a `cc > cd` model where the reader fixes it: at `cd`.
        let cd_line = required(model, "cd")?.line;
        let model = build(cc, cd).map_err(|e| fail(cd_line, e.to_string()))?;

        let phases: Vec<Phase> = doc
            .tables_named("phase")
            .map(|t| parse_phase(t, n))
            .collect::<Result<_, _>>()?;
        if phases.is_empty() {
            return Err(fail(
                scenario.line,
                "a scenario needs at least one [[phase]]",
            ));
        }
        let (mut faults, mut partitions) = (Vec::new(), Vec::new());
        for table in doc.tables_named("fault") {
            parse_fault(table, n, &mut faults, &mut partitions)?;
        }

        let expect = match doc.table("expect") {
            Some(table) => parse_expect(table, n)?,
            None => return Err(fail(scenario.line, "missing [expect] table")),
        };

        let golden = match doc.table("golden") {
            None => None,
            Some(table) => {
                check_keys(table, &["digest"])?;
                let entry = required(table, "digest")?;
                let digest = as_str(entry)?.to_string();
                let hex = digest.strip_prefix("0x").unwrap_or("");
                if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
                    return Err(fail(
                        entry.line,
                        "'digest' must be 0x followed by 16 hex digits",
                    ));
                }
                Some(digest)
            }
        };

        Ok(Scenario {
            name,
            description,
            n,
            seed,
            entrant,
            events,
            model,
            phases,
            faults,
            partitions,
            expect,
            golden,
        })
    }

    /// Whether the scenario declares no `[[fault]]` at all.
    pub fn is_failure_free(&self) -> bool {
        self.faults.is_empty() && self.partitions.is_empty()
    }

    /// Total scheduled request count across phases (trace phases count
    /// their token length).
    pub fn total_len(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match &p.workload {
                WorkloadSpec::Trace { text } => doma_workload::trace::read_trace(text.as_bytes())
                    .map(|s| s.len())
                    .unwrap_or(0),
                _ => p.len,
            })
            .sum()
    }

    /// Serializes the scenario back to its canonical TOML-subset text.
    /// `parse(to_toml(s)) == s` for every valid scenario.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let esc = toml::escape;
        out.push_str("[scenario]\n");
        out.push_str(&format!("name = {}\n", esc(&self.name)));
        out.push_str(&format!("description = {}\n", esc(&self.description)));
        out.push_str(&format!("n = {}\n", self.n));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("entrant = {}\n", esc(self.entrant.as_str())));
        out.push_str(&format!("events = {}\n", self.events));
        out.push_str("\n[model]\n");
        let environment = match self.model.environment() {
            Environment::Stationary => "sc",
            Environment::Mobile => "mc",
        };
        out.push_str(&format!("environment = {}\n", esc(environment)));
        out.push_str(&format!("cc = {}\n", self.model.cc()));
        out.push_str(&format!("cd = {}\n", self.model.cd()));
        for phase in &self.phases {
            out.push_str("\n[[phase]]\n");
            out.push_str(&format!("name = {}\n", esc(&phase.name)));
            out.push_str(&format!("workload = {}\n", esc(phase.workload.name())));
            if !matches!(phase.workload, WorkloadSpec::Trace { .. }) {
                out.push_str(&format!("len = {}\n", phase.len));
            }
            match &phase.workload {
                WorkloadSpec::Uniform { read_fraction } => {
                    out.push_str(&format!("read_fraction = {read_fraction}\n"));
                }
                WorkloadSpec::Zipf {
                    theta,
                    read_fraction,
                } => {
                    out.push_str(&format!("theta = {theta}\n"));
                    out.push_str(&format!("read_fraction = {read_fraction}\n"));
                }
                WorkloadSpec::Hotspot {
                    phase_len,
                    hot_prob,
                } => {
                    out.push_str(&format!("phase_len = {phase_len}\n"));
                    out.push_str(&format!("hot_prob = {hot_prob}\n"));
                }
                WorkloadSpec::Chaotic { redraw_every } => {
                    out.push_str(&format!("redraw_every = {redraw_every}\n"));
                }
                WorkloadSpec::Mobile {
                    cells,
                    callers,
                    move_prob,
                    read_fraction,
                } => {
                    out.push_str(&format!("cells = {cells}\n"));
                    out.push_str(&format!("callers = {callers}\n"));
                    out.push_str(&format!("move_prob = {move_prob}\n"));
                    out.push_str(&format!("read_fraction = {read_fraction}\n"));
                }
                WorkloadSpec::AppendOnly {
                    generators,
                    reads_per_write,
                } => {
                    out.push_str(&format!("generators = {generators}\n"));
                    out.push_str(&format!("reads_per_write = {reads_per_write}\n"));
                }
                WorkloadSpec::Trace { text } => {
                    out.push_str(&format!("trace = {}\n", esc(text)));
                }
            }
        }
        for rule in &self.faults {
            out.push_str("\n[[fault]]\n");
            let (kind, amount) = match rule.action {
                FaultAction::Drop => ("drop", None),
                FaultAction::Delay(ticks) => ("delay", Some(ticks)),
                FaultAction::Duplicate(ticks) => ("duplicate", Some(ticks)),
                FaultAction::Jitter { max } => ("jitter", Some(max)),
            };
            out.push_str(&format!("kind = {}\n", esc(kind)));
            if rule.window != ALWAYS {
                let (start, end) = rule.window;
                out.push_str(&format!("window = [{start}, {end}]\n"));
            }
            if let Some(from) = rule.filter.from {
                out.push_str(&format!("from = {}\n", from.0));
            }
            if let Some(to) = rule.filter.to {
                out.push_str(&format!("to = {}\n", to.0));
            }
            if let Some(msg) = rule.filter.kind {
                let msg = match msg {
                    MsgKind::Control => "control",
                    MsgKind::Data => "data",
                };
                out.push_str(&format!("msg = {}\n", esc(msg)));
            }
            out.push_str(&format!("probability = {}\n", rule.probability));
            if let Some(budget) = rule.budget {
                out.push_str(&format!("budget = {budget}\n"));
            }
            if let Some(amount) = amount {
                out.push_str(&format!("amount = {amount}\n"));
            }
        }
        for partition in &self.partitions {
            out.push_str("\n[[fault]]\n");
            out.push_str(&format!("kind = {}\n", esc("partition")));
            let (start, end) = partition.window;
            out.push_str(&format!("window = [{start}, {end}]\n"));
            let side: Vec<String> = partition.side.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!("side = [{}]\n", side.join(", ")));
        }
        out.push_str("\n[expect]\n");
        if let Some(v) = self.expect.max_ratio_vs_opt {
            out.push_str(&format!("max_ratio_vs_opt = {v}\n"));
        }
        if let Some(v) = self.expect.min_valid_holders {
            out.push_str(&format!("min_valid_holders = {v}\n"));
        }
        if let Some(v) = self.expect.max_scheme_churn {
            out.push_str(&format!("max_scheme_churn = {v}\n"));
        }
        out.push_str(&format!(
            "max_dropped_messages = {}\n",
            self.expect.max_dropped_messages
        ));
        if let Some(v) = self.expect.reads_completed {
            out.push_str(&format!("reads_completed = {v}\n"));
        }
        out.push_str(&format!("obs_parity = {}\n", self.expect.obs_parity));
        if let Some(digest) = &self.golden {
            out.push_str("\n[golden]\n");
            out.push_str(&format!("digest = {}\n", esc(digest)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        "[scenario]\n\
         name = \"demo\"\n\
         description = \"a demo\"\n\
         n = 6\n\
         seed = 7\n\
         entrant = \"sa\"\n\
         [model]\n\
         environment = \"sc\"\n\
         cc = 0.25\n\
         cd = 1.0\n\
         [[phase]]\n\
         name = \"steady\"\n\
         workload = \"uniform\"\n\
         len = 20\n\
         read_fraction = 0.7\n\
         [expect]\n\
         max_dropped_messages = 0\n"
            .to_string()
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(&minimal()).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.entrant, Entrant::Sa);
        assert_eq!(s.events, 512);
        assert_eq!(s.phases.len(), 1);
        assert!(s.faults.is_empty());
        assert!(s.expect.obs_parity);
        assert_eq!(s.golden, None);
        assert_eq!(s.total_len(), 20);
    }

    #[test]
    fn roundtrips_through_to_toml() {
        let s = Scenario::parse(&minimal()).unwrap();
        let again = Scenario::parse(&s.to_toml()).unwrap();
        assert_eq!(s, again);
    }

    #[test]
    fn trace_phase_takes_length_from_text() {
        let src = minimal().replace(
            "workload = \"uniform\"\n\
             len = 20\n\
             read_fraction = 0.7\n",
            "workload = \"trace\"\n\
             trace = \"r1 w2 r1 r3\"\n",
        );
        let s = Scenario::parse(&src).unwrap();
        assert_eq!(s.total_len(), 4);
        assert_eq!(Scenario::parse(&s.to_toml()).unwrap(), s);
    }

    #[test]
    fn validation_errors_point_at_lines() {
        let cases: &[(&str, &str, &str)] = &[
            ("entrant = \"sa\"", "entrant = \"zzz\"", "unknown entrant"),
            ("n = 6", "n = 2", "'n' must be in 3..=64"),
            ("n = 6", "n = 65", "'n' must be in 3..=64"),
            ("seed = 7", "seed = -1", "non-negative integer"),
            (
                "environment = \"sc\"",
                "environment = \"xy\"",
                "must be sc or mc",
            ),
            ("cc = 0.25", "cc = 0.0", "'cc' must be > 0"),
            ("cc = 0.25", "cc = 2.0", "cc=2 > cd=1"),
            (
                "read_fraction = 0.7",
                "read_fraction = 1.5",
                "must be in [0, 1]",
            ),
            (
                "workload = \"uniform\"",
                "workload = \"warp\"",
                "unknown workload",
            ),
            ("len = 20", "len = 0", "'len' must be >= 1"),
        ];
        for (from, to, needle) in cases {
            let src = minimal().replace(from, to);
            let e = Scenario::parse(&src).unwrap_err();
            assert!(e.line.is_some(), "{to}: expected a line number, got {e}");
            assert!(e.to_string().contains(needle), "{to}: {e}");
        }
    }

    #[test]
    fn unknown_keys_and_tables_are_rejected() {
        let e = Scenario::parse(&(minimal() + "[mystery]\nx = 1\n")).unwrap_err();
        assert!(e.to_string().contains("unknown table"), "{e}");
        let e = Scenario::parse(&minimal().replace("seed = 7", "seed = 7\nwat = 1")).unwrap_err();
        assert!(e.to_string().contains("unknown key 'wat'"), "{e}");
    }

    #[test]
    fn fault_cross_field_rules() {
        let partition_ok =
            minimal() + "[[fault]]\nkind = \"partition\"\nwindow = [5, 9]\nside = [0, 1]\n";
        let s = Scenario::parse(&partition_ok).unwrap();
        assert_eq!((s.faults.len(), s.partitions.len()), (0, 1));
        assert_eq!(Scenario::parse(&s.to_toml()).unwrap(), s);

        let missing_window = minimal() + "[[fault]]\nkind = \"partition\"\nside = [0]\n";
        assert!(Scenario::parse(&missing_window)
            .unwrap_err()
            .to_string()
            .contains("require a 'window'"));

        let delay_no_amount = minimal() + "[[fault]]\nkind = \"delay\"\n";
        assert!(Scenario::parse(&delay_no_amount)
            .unwrap_err()
            .to_string()
            .contains("require an 'amount'"));

        let drop_with_amount = minimal() + "[[fault]]\nkind = \"drop\"\namount = 3\n";
        assert!(Scenario::parse(&drop_with_amount)
            .unwrap_err()
            .to_string()
            .contains("does not apply"));

        let bad_node = minimal() + "[[fault]]\nkind = \"drop\"\nfrom = 99\n";
        assert!(Scenario::parse(&bad_node)
            .unwrap_err()
            .to_string()
            .contains("outside cluster"));

        // A partition must cut something: no repeated node, and not
        // every node on one side. Both are reported at the `side` line.
        let side_line = minimal().lines().count() + 4;
        for (side, needle) in [
            ("[0, 1, 2, 2]", "distinct nodes"),
            ("[5, 4, 3, 2, 1, 0]", "not all 6 of them"),
        ] {
            let src = partition_ok.replace("side = [0, 1]", &format!("side = {side}"));
            let e = Scenario::parse(&src).unwrap_err();
            assert_eq!(e.line, Some(side_line), "{side}: {e}");
            assert!(e.to_string().contains(needle), "{side}: {e}");
        }
    }

    #[test]
    fn golden_digest_shape_is_enforced() {
        let good = minimal() + "[golden]\ndigest = \"0x0123456789abcdef\"\n";
        let s = Scenario::parse(&good).unwrap();
        assert_eq!(s.golden.as_deref(), Some("0x0123456789abcdef"));
        let bad = minimal() + "[golden]\ndigest = \"abc\"\n";
        assert!(Scenario::parse(&bad)
            .unwrap_err()
            .to_string()
            .contains("16 hex digits"));
    }

    #[test]
    fn mobile_universe_must_fit() {
        let src = minimal().replace(
            "workload = \"uniform\"\n\
             len = 20\n\
             read_fraction = 0.7\n",
            "workload = \"mobile\"\n\
             len = 20\n\
             cells = 4\n\
             callers = 4\n\
             move_prob = 0.3\n\
             read_fraction = 0.6\n",
        );
        assert!(Scenario::parse(&src)
            .unwrap_err()
            .to_string()
            .contains("exceeds n"));
    }
}
