//! The repo's benchmark: one workload through six deployments of the same
//! request path, every output checked against the sim oracle, every metric
//! printed by name with its unit. See `benchmark/README.md`.

mod agree;
mod alloc;
mod deploy;
mod interp;
mod layers;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use deploy::{ClusterRun, SimMode, SimRun, Sizes, Tally};
use doma_core::{DomaError, Result};
use doma_net::TransportKind;
use report::{Catalog, RunResult, Values};
use spans::Spans;
use stats::{fastest, iqr_share, median, pct};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  run.sh --workload <mix64|mix64w|append62> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  run.sh --smoke [--seed N] [--out DIR]
  run.sh --agree <setA> <setB>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    agree: Option<(PathBuf, PathBuf)>,
}

fn parse_args(catalog: &Catalog) -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: catalog.run_seconds,
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        agree: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds takes 1 to 60".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--agree" => {
                args.agree = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The median wall seconds of `reps` runs of one set-up step.
fn median_secs<T>(reps: usize, mut step: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let built = step()?;
        secs.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    Ok(median(&secs))
}

/// The part of `setup_s` a simulator pays — generating the schedule and
/// building the simulator, each the median of several — and the first of
/// the two alone.
fn measure_sim_setup(w: &Workload, seed: u64, sizes: &Sizes) -> Result<(f64, f64)> {
    let reps = sizes.setup_reps;
    let generate = median_secs(reps, || Ok(w.generate(sizes.requests, seed)))?;
    let build = median_secs(reps, || deploy::fresh_sim(w, SimMode::Plain))?;
    Ok((generate + build, generate))
}

/// Boots per transport that `setup_s` takes its median cluster boot from: a
/// boot takes a few ms and is the noisiest step of set-up.
fn boot_reps(sizes: &Sizes) -> usize {
    4 * sizes.setup_reps + 1
}

/// Boots and shuts down `reps` clusters over `kind`, adding each boot's
/// seconds to `secs`.
fn time_boots(w: &Workload, kind: TransportKind, reps: usize, secs: &mut Vec<f64>) -> Result<()> {
    for _ in 0..reps {
        let (cluster, boot_s) = deploy::boot_cluster(w, kind)?;
        secs.push(boot_s);
        cluster.shutdown()?;
    }
    Ok(())
}

fn req_per_s_ns(req_per_s: f64) -> f64 {
    1e9 / req_per_s
}

/// The per-transport layer metrics of one socket deployment.
fn net_metrics(values: &mut Values, tag: &str, run: &ClusterRun) {
    let all = run.all_lat_us();
    let p50 = median(&all);
    let round = median(&run.report_round_us);
    let served = run.served() as f64;
    let mut put = |name: &str, value: f64| {
        values.insert(format!("net.{tag}.{name}"), value);
    };
    put("boot_ms", median(&run.boot_ms));
    put("shutdown_ms", median(&run.shutdown_ms));
    put("report_round_us", round);
    put("lat_over_round", p50 / round);
    put("msgs_per_req", run.msgs as f64 / served);
    put("lat_p90_us", pct(&all, 90.0));
    put("lat_max_us", pct(&all, 100.0));
    put("samples", served);
    put("cpu_ns_per_req", run.cpu_ns as f64 / served);
}

/// Runs one workload through every deployment and check.
fn run_workload(
    catalog: &Catalog,
    w: &Workload,
    args: &Args,
    sizes: Sizes,
) -> Result<(RunResult, Option<Spans>)> {
    let mut tally = Tally::default();
    let mut wall: Vec<(&'static str, f64)> = Vec::new();
    let mut spans = args.traced.then(Spans::new);
    let mut e2e = Values::new();
    let mut layer = Values::new();

    // Everything but `shard2` runs on one CPU, the last one (the first
    // takes the interrupts). For the sockets that is what makes the numbers
    // repeat: a request that is not quiet after three poll rounds pays the
    // poll loop's 200 µs sleep, and on two CPUs whether it is depends on
    // how long the host takes to wake the other one — p50 flips between
    // ≈140 and ≈350 µs for minutes at a time. On one CPU every hop is a
    // context switch and the same code runs.
    let pinned = sys::pin_to_one_cpu();
    if let Err(why) = &pinned {
        eprintln!("{}: running unpinned, which reads noisier: {why}", w.name);
    }

    let start = Instant::now();
    let (sim_setup_s, generate_s) = measure_sim_setup(w, args.seed, &sizes)?;
    let schedule = w.generate(sizes.requests, args.seed);
    let mut setup_wall_s = start.elapsed().as_secs_f64();
    let requests = schedule.len();
    let traced_prefix = &schedule.requests()[..sizes.trace_requests.min(requests)];
    let trace_schedule = doma_core::MultiSchedule::from_requests(traced_prefix.to_vec());

    // The pinned deployments, in rounds (check 3 inside the socket ones).
    let mut uds: Option<ClusterRun> = None;
    let mut tcp: Option<ClusterRun> = None;
    let mut sims: [Option<SimRun>; 3] = [None, None, None];
    let mut peak_rss_mb = 0.0;
    let mut boot_secs = [Vec::new(), Vec::new()];
    for round in 0..sizes.rounds {
        let start = Instant::now();
        for (kind, secs) in [TransportKind::Uds, TransportKind::Tcp]
            .into_iter()
            .zip(&mut boot_secs)
        {
            time_boots(w, kind, sizes.share(boot_reps(&sizes), round), secs)?;
        }
        setup_wall_s += start.elapsed().as_secs_f64();
        // Only the first round records spans.
        let mut spans = spans.as_mut().filter(|_| round == 0);
        let mut sockets = |kind| {
            deploy::run_cluster(w, &schedule, kind, &sizes, spans.as_deref_mut(), &mut tally)
        };
        let later = sockets(TransportKind::Uds)?;
        match &mut uds {
            Some(run) => run.absorb(later),
            None => uds = Some(later),
        }
        // One cluster up to its time cap: its latency is a kernel timer.
        if round == 0 {
            tcp = Some(sockets(TransportKind::Tcp)?);
        }
        for (slot, (mode, reps, schedule)) in sims.iter_mut().zip([
            (SimMode::Plain, sizes.sim_reps, &schedule),
            (SimMode::Obs, sizes.obs_reps, &schedule),
            (SimMode::Spans, sizes.trace_reps, &trace_schedule),
        ]) {
            let reps = sizes.share(reps, round);
            if reps == 0 {
                continue;
            }
            let later = deploy::run_sim(w, schedule, reps, mode, &mut tally)?;
            match slot {
                Some(run) => run.absorb(later, &mut tally),
                None => *slot = Some(later),
            }
            // Read after the first detached reps, while the process is what
            // a person running the sequential sim has: the schedule and one
            // live simulator at a time on one thread. Read at the end of
            // the run, the allocator arenas of the shard workers move the
            // high-water mark by a quarter between runs.
            if round == 0 && mode == SimMode::Plain {
                peak_rss_mb = sys::peak_rss_mib();
            }
        }
    }
    let [sim, obs, trace] = sims.map(|run| run.expect("every deployment has a rep in round 0"));
    let (uds, tcp) = (uds.expect("round 0"), tcp.expect("round 0"));
    for (name, secs) in [
        ("setup", setup_wall_s),
        ("uds", uds.wall_s),
        ("tcp", tcp.wall_s),
        ("sim", sim.wall_s),
        ("obs", obs.wall_s),
        ("trace", trace.wall_s),
    ] {
        wall.push((name, secs));
    }
    let expected = &sim.report;
    // `shard2` needs every CPU back.
    let pinned_cpu = match pinned {
        Ok((cpu, allowed)) => {
            sys::allow_cpus(&allowed).map_err(DomaError::InvalidConfig)?;
            Some(cpu)
        }
        Err(_) => None,
    };
    let shard2 = deploy::run_shard2(w, &schedule, sizes.shard_reps, expected, &mut tally)?;
    wall.push(("shard2", shard2.wall_s));

    // Check 1 (across deployments): attaching obs must not change the run.
    tally.check(obs.report == *expected, || {
        "obs: report differs from the detached sim's".to_string()
    });
    // Check 2: the sim's totals are the paper's analytic totals, and the
    // obs counters sum to them.
    let (analytic, allocations) = layers::analytic_cost(w, &schedule)?;
    tally.check(expected.cost == analytic, || {
        format!(
            "sim cost {:?} differs from the analytic {analytic:?}",
            expected.cost
        )
    });
    let obs_bundle = obs.bundle();
    let snapshot = obs_bundle.metrics().snapshot();
    let counted = doma_core::CostVector::new(
        snapshot.sum_counters("protocol", "cost.control"),
        snapshot.sum_counters("protocol", "cost.data"),
        snapshot.sum_counters("protocol", "cost.io"),
    );
    tally.check(counted == expected.cost, || {
        format!(
            "obs counters {counted:?} differ from the report {:?}",
            expected.cost
        )
    });

    // Check 4: the bench-local interpreter does what the sim does.
    let start = Instant::now();
    let interp = interp::interpret(w, &schedule, spans.as_mut(), sizes.span_requests)?;
    wall.push(("interp", start.elapsed().as_secs_f64()));
    tally.attempted += requests as u64;
    let sim_kinds = interp::sim_kind_counts(&schedule, &snapshot);
    tally.check(
        interp.cost == expected.cost
            && interp.kind_counts == sim_kinds
            && interp.other_msgs == 0
            && interp.node_errors == 0,
        || {
            format!(
                "interpreter cost {:?} kinds {:?} differ from the sim's {:?} {sim_kinds:?}",
                interp.cost, interp.kind_counts, expected.cost
            )
        },
    );

    let sim_rps = sim.fastest_req_per_s();
    let obs_rps = obs.fastest_req_per_s();
    let trace_rps = trace.fastest_req_per_s();
    let shard2_rps = shard2.fastest_req_per_s();
    if let Some(spans) = spans.as_mut() {
        let start = Instant::now();
        layer_metrics(
            &mut layer,
            w,
            &schedule,
            &sizes,
            generate_s,
            &sim,
            &obs,
            &trace,
            shard2_rps,
            &interp,
            &allocations,
            spans,
        )?;
        wall.push(("layers", start.elapsed().as_secs_f64()));
    }

    let uds_segments: Vec<[f64; 3]> = uds
        .segment_lat_us
        .iter()
        .zip(&uds.segment_secs)
        .map(|(lat, secs)| [lat.len() as f64 / secs, median(lat), pct(lat, 99.0)])
        .collect();
    // Each from the segment that did best at it: what the box adds to a
    // segment (a slower spell comes and goes within a run, +40 % on p50)
    // only ever slows it down, as with the fastest rep of the sim.
    let column = |i: usize| -> Vec<f64> { uds_segments.iter().map(|s| s[i]).collect() };
    let mut put = |name: &str, value: f64| {
        e2e.insert(name.to_string(), value);
    };
    // The time until each deployment can take its first request.
    put(
        "setup_s",
        sim_setup_s + boot_secs.iter().map(|secs| median(secs)).sum::<f64>(),
    );
    put("sim_req_per_s", sim_rps);
    put("obs_req_per_s", obs_rps);
    put("trace_req_per_s", trace_rps);
    put("shard2_req_per_s", shard2_rps);
    put("uds_req_per_s", column(0).into_iter().fold(0.0, f64::max));
    put("uds_lat_p50_us", fastest(&column(1)));
    put("uds_lat_p99_us", fastest(&column(2)));
    put("tcp_req_per_s", tcp.req_per_s());
    put("tcp_lat_p50_us", median(&tcp.all_lat_us()));
    put(
        "cost_per_req",
        deploy::cost_per_req(&expected.cost, requests),
    );
    put(
        "ok_share",
        1.0 - tally.failed as f64 / tally.attempted as f64,
    );
    put("peak_rss_mb", peak_rss_mb);

    if args.traced {
        net_metrics(&mut layer, "uds", &uds);
        net_metrics(&mut layer, "tcp", &tcp);
    }

    let in_order =
        |specs, values| report::in_catalog_order(specs, values).map_err(DomaError::InvalidConfig);
    let result = RunResult {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        report_digest: deploy::report_digest(expected),
        sizes,
        wall_s: wall,
        uds_segments,
        peak_rss_end_mb: sys::peak_rss_mib(),
        pinned_cpu,
        end_to_end: in_order(&catalog.end_to_end, &e2e)?,
        per_layer: if args.traced {
            in_order(&catalog.per_layer, &layer)?
        } else {
            Vec::new()
        },
        span_totals: spans.as_ref().map(Spans::totals).unwrap_or_default(),
    };
    Ok((result, spans))
}

/// Every per-layer metric except the per-transport `net.*` ones.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    values: &mut Values,
    w: &Workload,
    schedule: &doma_core::MultiSchedule,
    sizes: &Sizes,
    generate_s: f64,
    sim: &SimRun,
    obs: &SimRun,
    trace: &SimRun,
    shard2_rps: f64,
    interp: &interp::InterpRun,
    allocations: &[(doma_core::AllocationSchedule, usize)],
    spans: &mut Spans,
) -> Result<()> {
    let requests = schedule.len() as f64;
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let sim_ns = req_per_s_ns(sim.fastest_req_per_s());
    let obs_ns = req_per_s_ns(obs.fastest_req_per_s());
    let trace_ns = req_per_s_ns(trace.fastest_req_per_s());

    // workload
    let reads = schedule
        .requests()
        .iter()
        .filter(|r| r.request.is_read())
        .count();
    put("workload.gen_ns_per_req", generate_s * 1e9 / requests);
    put("workload.read_share", reads as f64 / requests);

    // planner, engine
    let plan_ns = layers::planner_plan_ns(w, schedule);
    let event_ns = layers::engine_event_ns(w.n);
    let events_per_req = sim.dispatched as f64 / requests;
    put("planner.plan_ns_per_req", plan_ns);
    put("engine.event_ns", event_ns);
    put("engine.events_per_req", events_per_req);

    // node: DomNode::deliver by message kind, from the interpreter
    let deliver_median_ns = interp.deliver_median_ns();
    let mut deliver_ns = 0.0;
    for (kind, name) in interp::KINDS.iter().enumerate() {
        let per_req = interp.kind_counts[kind] as f64 / requests;
        put(&format!("node.deliver_ns.{name}"), deliver_median_ns[kind]);
        put(&format!("node.delivers_per_req.{name}"), per_req);
        deliver_ns += deliver_median_ns[kind] * per_req;
    }
    // Medians times counts: one pass over cold memory has a long tail of
    // page faults the fastest of many sim reps does not pay.
    put("node.deliver_ns_per_req", deliver_ns);
    put("node.errors", interp.node_errors as f64);

    // storage
    let storage = layers::storage_prices(schedule);
    let writes = interp.kind_counts[1] as f64;
    put("storage.io_per_req", sim.report.cost.io as f64 / requests);
    put("storage.output_ns", storage.output_ns);
    put("storage.input_ns", storage.input_ns);
    put("storage.invalidate_ns", storage.invalidate_ns);
    // Redo-log growth: a Put per stored object, an Invalidate record per
    // invalidation delivered, over the client writes that caused them.
    put(
        "storage.log_records_per_write",
        (interp.store_outputs + interp.kind_counts[5]) as f64 / writes,
    );
    put(
        "storage.recover_ns_per_record",
        storage.recover_ns_per_record,
    );

    // obs
    let prices = layers::obs_prices();
    let bundle = obs.bundle();
    let mut snapshot_ms = Vec::new();
    let mut snapshot_bytes = 0;
    for _ in 0..5 {
        let start = Instant::now();
        snapshot_bytes = std::hint::black_box(bundle.snapshot_json()).len();
        snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let traced_bundle = trace.bundle();
    put("obs.counter_add_ns", prices.counter_add_ns);
    put("obs.counter_handle_ns", prices.counter_handle_ns);
    put("obs.event_record_ns", prices.event_record_ns);
    put("obs.span_ns", prices.span_ns);
    put("obs.snapshot_json_ms", median(&snapshot_ms));
    put("obs.snapshot_bytes", snapshot_bytes as f64);
    put(
        "obs.dropped_events",
        traced_bundle.events().dropped_events() as f64,
    );
    put("obs.attach_ns_per_req", obs_ns - sim_ns);
    put("obs.spans_ns_per_req", trace_ns - obs_ns);

    // codec, over the frames this workload puts on a socket
    let codec = layers::codec_prices(interp)?;
    put("codec.encode_ns_per_frame", codec.encode_ns_per_frame);
    put("codec.decode_ns_per_frame", codec.decode_ns_per_frame);
    put(
        "codec.stream_decode_ns_per_frame",
        codec.stream_decode_ns_per_frame,
    );
    put(
        "codec.encode_mb_per_s",
        codec.bytes_per_frame / codec.encode_ns_per_frame * 1e3,
    );
    put(
        "codec.decode_mb_per_s",
        codec.bytes_per_frame / codec.decode_ns_per_frame * 1e3,
    );
    put("codec.bytes_per_frame", codec.bytes_per_frame);
    put(
        "codec.frames_per_req",
        interp.frames_total as f64 / requests,
    );

    // sharded
    let phases = layers::shard_phases(w, schedule, sizes.setup_reps)?;
    put("sharded.partition_us", phases.partition_us);
    put("sharded.project_us", phases.project_us);
    put("sharded.spawn_us", phases.spawn_us);
    put("sharded.setup_us", phases.setup_us);
    put("sharded.execute_us", phases.execute_us);
    put("sharded.merge_us", phases.merge_us);
    // 1 − sim time ÷ shard2 time: negative when sharding wins.
    put(
        "sharded.tax_share",
        1.0 - shard2_rps / sim.fastest_req_per_s(),
    );

    // sim, the composite: spans, CPU time, allocations
    let span_prefix = &schedule.requests()[..sizes.span_requests.min(schedule.len())];
    let (traced_s, untraced_s) = layers::traced_sim_pass(w, span_prefix, spans)?;
    let per_request = spans.durations("sim.request");
    let mean = |name: &str| {
        let d = spans.durations(name);
        d.iter().sum::<f64>() / d.len() as f64
    };
    put("sim.inject_ns_per_req", mean("sim.inject"));
    put("sim.settle_ns_per_req", mean("sim.settle"));
    put("sim.request_p50_ns", median(&per_request));
    put("sim.request_p99_ns", pct(&per_request, 99.0));
    let cpu_ns = sim
        .rep_cpu_ns
        .iter()
        .copied()
        .min()
        .expect("at least one rep");
    put("sim.cpu_ns_per_req", cpu_ns as f64 / requests);
    let (mut counted_sim, _) = deploy::fresh_sim(w, SimMode::Plain)?;
    let (outcome, allocs, bytes) = alloc::counted(|| counted_sim.execute_multi(schedule));
    outcome?;
    put("sim.allocs_per_req", allocs as f64 / requests);
    put("sim.alloc_bytes_per_req", bytes as f64 / requests);
    put("sim.read_latency_ticks_mean", sim.report.mean_read_latency);
    let rep_rps: Vec<f64> = sim.rep_secs.iter().map(|s| requests / s).collect();
    put("sim.rep_median_req_per_s", median(&rep_rps));
    put("sim.rep_iqr_share", iqr_share(&rep_rps));
    put(
        "sim.explained_share",
        (plan_ns + event_ns * events_per_req + deliver_ns) / sim_ns,
    );

    // core, tracing
    put(
        "core.cost_of_schedule_ns_per_req",
        layers::cost_engine_ns(allocations, schedule.len()),
    );
    put("trace.overhead_share", 1.0 - untraced_s / traced_s);
    Ok(())
}

/// Writes the result file (and the span file of a traced run) under `out`.
fn write_files(
    out: &Path,
    result: &RunResult,
    spans: Option<&Spans>,
    host: &sys::Host,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let name = format!("{}.{stamp}.result.json", result.workload);
    std::fs::write(out.join(name), result.file_json(host))?;
    if let Some(spans) = spans {
        std::fs::write(
            out.join(format!("{}.trace.json", result.workload)),
            spans.to_json(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let catalog = Catalog::load();
    let args = match parse_args(&catalog) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.agree {
        return match agree::agree(&catalog, a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("--agree: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = match (&args.workload, args.smoke) {
        (Some(name), _) => vec![name.as_str()],
        (None, true) => workloads::NAMES.to_vec(),
        (None, false) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = sys::Host::probe();
    let mut all_correct = true;
    for name in names {
        let Some(w) = Workload::by_name(name) else {
            eprintln!("unknown workload {name}\n{USAGE}");
            return ExitCode::from(2);
        };
        let sizes = if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full(args.seconds)
        };
        let (result, spans) = match run_workload(&catalog, &w, &args, sizes) {
            Ok(done) => done,
            Err(e) => {
                // No result line: a run that could not finish has nothing
                // to report (sockets refused by the sandbox land here).
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", result.table());
        if let Err(e) = write_files(&args.out, &result, spans.as_ref(), &host) {
            eprintln!("{name}: writing results under {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        println!("{}", result.result_line());
        all_correct &= result.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
