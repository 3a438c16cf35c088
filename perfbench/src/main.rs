//! perfbench — the repository's end-to-end benchmark of the axml query
//! server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_heavy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run starts the server in-process on loopback, sets the workload
//! up (measured in fresh child processes, and once more in this one),
//! drives one keep-alive connection in a closed loop for `--seconds`,
//! then verifies every response against in-process evaluation. With
//! `--trace 1` it also replays the same operation sequence in-process
//! with spans around each layer's public calls and reports per-layer
//! numbers instead of the end-to-end ones. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md`.

mod bench;
mod client;
mod doc;
mod plan;
mod stats;
mod trace;
mod verify;

use axml::json::Json;
use axml::Route;
use bench::{closed_loop, Rec, Served, Stats, POOL_WORKERS};
use plan::{Class, Op, Plan, Workload};
use stats::{ms, percentile, HostCpu};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{LayerTimes, Name, Replay, Tracer};

/// Set-ups measured in child processes per run; with the parent's own
/// set-up, `setup_s` is the median of `SETUP_CHILDREN + 1` samples.
const SETUP_CHILDREN: usize = 4;

/// `throughput_rps` is the median rate over this many consecutive
/// slices of the timed phase, each holding the same number of
/// operations: a burst of host steal time slows a few slices, not the
/// median.
const THROUGHPUT_SLICES: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--setup-only" => setup_only = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: match (seconds, setup_only) {
            (Some(s), _) if s > 0 => s,
            (_, true) => 0,
            _ => return Err("--seconds must be given and positive".into()),
        },
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.setup_only {
        setup_child(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--setup-only`: set the workload up once, print the seconds it took,
/// shut down.
fn setup_child(args: &Args) -> Result<(), String> {
    let plan = Plan::build(args.workload, args.seed);
    let start = Instant::now();
    let served = Served::start(&plan)?;
    println!("setup_s {}", start.elapsed().as_secs_f64());
    served.shutdown();
    Ok(())
}

/// Set-up time in a fresh process, one child at a time.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--setup-only",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
    {
        Some(v) if out.status.success() => v.parse().map_err(|e| format!("set-up child: {e}")),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over [`THROUGHPUT_SLICES`] equal-count slices of `recs` of
/// operations completed per second, each slice timed from the end of
/// the one before (the first from `t0`).
fn sliced_rate(t0: Instant, recs: &[Rec]) -> f64 {
    let per = (recs.len() / THROUGHPUT_SLICES).max(1);
    let mut since = t0;
    let rates: Vec<f64> = recs
        .chunks_exact(per)
        .map(|slice| {
            let end = slice[slice.len() - 1].done;
            let rate = slice.len() as f64 / end.duration_since(since).as_secs_f64();
            since = end;
            rate
        })
        .collect();
    median(&rates)
}

fn quantile(label: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    percentile(samples, q).ok_or_else(|| {
        format!(
            "{label}: {} samples are too few for p{}",
            samples.len(),
            (q * 100.0).round()
        )
    })
}

/// Metrics in output order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Attempted and failed operations of one class.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Result<(), String> {
    let plan = Plan::build(args.workload, args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Set-up, several times: fresh processes first, then the one whose
    // server the timed phase uses. A traced run reports no set-up time
    // and sets up once.
    let mut setup_samples = Vec::with_capacity(SETUP_CHILDREN + 1);
    for _ in 0..if args.trace { 0 } else { SETUP_CHILDREN } {
        setup_samples.push(child_setup_s(args)?);
    }
    let start = Instant::now();
    let mut served = Served::start(&plan)?;
    setup_samples.push(start.elapsed().as_secs_f64());

    // Timed phase.
    let stats0 = served.stats()?;
    let (host0, cpu0, client0) = (
        HostCpu::now(),
        stats::process_cpu_s(),
        stats::thread_cpu_s(),
    );
    let t0 = Instant::now();
    let timed = closed_loop(
        &mut served,
        &plan,
        &plan.timed,
        t0 + Duration::from_secs(args.seconds),
    )?;
    let (host1, cpu1, client1) = (
        HostCpu::now(),
        stats::process_cpu_s(),
        stats::thread_cpu_s(),
    );
    let rss_mb = stats::peak_rss_mb();
    let stats1 = served.stats()?;
    served.shutdown();

    // Verification: every response against in-process evaluation.
    let executed = timed.len().min(plan.timed.len());
    let expect = verify::expectations(&plan, &plan.timed[..executed])?;
    let mut tallies = [Tally::default(); Class::ALL.len()];
    let mut failures = Vec::new();
    for r in &timed {
        let tally = &mut tallies[r.class as usize];
        tally.attempted += 1;
        if !(r.reply.ok() && expect[r.index].accepts(r.reply.body_hash, &r.reply.body)) {
            tally.failed += 1;
            if failures.len() < 5 {
                failures.push(format!(
                    "op {} ({}): status {}, complete {}",
                    r.index,
                    r.class.name(),
                    r.reply.status,
                    r.reply.complete
                ));
            }
        }
    }
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();

    let ops = timed.len() as f64;
    let steal_pct = host1.steal_pct_since(&host0);
    let client_cpu_ms_per_op = (client1 - client0) * 1e3 / ops;

    let mut m = Metrics::default();
    if !args.trace {
        let lat = |class: Class, recs: &[Rec]| -> Vec<f64> {
            recs.iter()
                .filter(|r| r.class == class)
                .map(|r| ms(r.latency))
                .collect()
        };
        let evals = lat(Class::Eval, &timed);
        let first: Vec<f64> = timed
            .iter()
            .filter(|r| r.class == Class::Eval)
            .filter_map(|r| r.first_byte.map(ms))
            .collect();
        let (edits, loads) = (lat(Class::Edit, &timed), lat(Class::Load, &timed));
        m.put("setup_s", median(&setup_samples), "s");
        m.put("throughput_rps", sliced_rate(t0, &timed), "1/s");
        m.put("eval_p50_ms", quantile("eval_p50_ms", &evals, 0.5)?, "ms");
        m.put("eval_p90_ms", quantile("eval_p90_ms", &evals, 0.9)?, "ms");
        m.put(
            "first_byte_p50_ms",
            quantile("first_byte_p50_ms", &first, 0.5)?,
            "ms",
        );
        m.put("edit_p50_ms", quantile("edit_p50_ms", &edits, 0.5)?, "ms");
        m.put("edit_p90_ms", quantile("edit_p90_ms", &edits, 0.9)?, "ms");
        m.put("load_p50_ms", quantile("load_p50_ms", &loads, 0.5)?, "ms");
        m.put(
            "cpu_ms_per_op",
            ((cpu1 - cpu0) - (client1 - client0)) * 1e3 / ops,
            "ms",
        );
        m.put("rss_mb", rss_mb, "MB");
    } else {
        per_layer(&mut m, &plan, args.seed, &timed, [&stats0, &stats1])?;
        m.put("client.cpu_ms_per_op", client_cpu_ms_per_op, "ms");
    }

    // Report: human-readable lines, then the one-line result.
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        plan.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut env = Json::new();
    env.begin_obj();
    env.key("nproc");
    env.int(nproc as u64);
    env.key("cpu_model");
    env.str(&stats::cpu_model());
    env.key("seed");
    env.int(args.seed);
    env.key("pool_workers");
    env.int(POOL_WORKERS as u64);
    env.key("env.steal_pct");
    env.num(steal_pct);
    env.key("setup_samples_s");
    env.begin_arr();
    for s in &setup_samples {
        env.num(*s);
    }
    env.end_arr();
    env.key("timed_ops");
    env.int(timed.len() as u64);
    env.key("client.cpu_ms_per_op");
    env.num(client_cpu_ms_per_op);
    // Zero whenever the workload never fans out onto the pool, so it is
    // recorded here rather than as a per-layer time.
    env.key("pool.max_queue_residency_ms");
    env.num(stats1.get("max_queue_residency_ns") / 1e6);
    env.end_obj();
    println!("env {}", env.finish());
    for class in Class::ALL {
        let t = tallies[class as usize];
        if t.attempted > 0 {
            println!(
                "ops {:<8} attempted {:>7} failed {}",
                class.name(),
                t.attempted,
                t.failed
            );
        }
    }
    for f in &failures {
        println!("failed: {f}");
    }
    for (name, value, unit) in &m.0 {
        println!("metric {name:<36} {value:>14.4} {unit}");
    }
    let mut j = Json::new();
    j.begin_obj();
    j.key("correct");
    j.bool(failed == 0);
    j.key("attempted");
    j.int(attempted);
    j.key("failed");
    j.int(failed);
    j.key("metrics");
    j.begin_obj();
    for (name, value, unit) in &m.0 {
        j.key(name);
        j.begin_obj();
        j.key("value");
        j.num(*value);
        j.key("unit");
        j.str(unit);
        j.end_obj();
    }
    j.end_obj();
    j.end_obj();
    println!("{}", j.finish());
    Ok(())
}

/// The traced in-process replay of exactly the operations the timed
/// run sent, and the counters of `GET /stats` taken after set-up
/// (`s[0]`) and after the timed phase (`s[1]`).
fn per_layer(
    m: &mut Metrics,
    plan: &Plan,
    seed: u64,
    timed: &[Rec],
    s: [&Stats; 2],
) -> Result<(), String> {
    let replay = Replay::new(plan, POOL_WORKERS);
    let mut t = Tracer::new();
    let mut untraced = Tracer::new();
    let mut eval_ops = std::collections::HashSet::new();
    let mut next_id = 0u32;
    let mut step = |op: &Op, t: &mut Tracer, traced: bool| -> Result<u32, String> {
        t.op = next_id;
        next_id += 1;
        if traced {
            t.span(Name::Op, |t| replay.exec(op, t))?;
        } else {
            replay.exec(op, t)?;
        }
        Ok(t.op)
    };
    for op in &plan.setup {
        // Warm-up evaluations run untraced; set-up writes and prepares
        // are traced.
        match op {
            Op::Eval { .. } => step(op, &mut untraced, false)?,
            _ => step(op, &mut t, true)?,
        };
        untraced.spans.clear();
    }
    for r in timed {
        let id = step(&plan.timed[r.index], &mut t, true)?;
        if r.class == Class::Eval {
            eval_ops.insert(id);
        }
    }
    if let Err(e) = write_spans(&t, plan, seed) {
        eprintln!("perfbench: spans not written: {e}");
    }

    let layers = LayerTimes::from(&t);
    // In-process latency of the same evaluations the timed phase sent.
    let in_process: Vec<f64> = t
        .spans
        .iter()
        .filter(|sp| sp.name == Name::Op && eval_ops.contains(&sp.op))
        .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e6)
        .collect();
    let http: Vec<f64> = timed
        .iter()
        .filter(|r| r.class == Class::Eval)
        .map(|r| ms(r.latency))
        .collect();
    m.put(
        "server.overhead_p50_ms",
        quantile("eval_p50_ms", &http, 0.5)? - quantile("in-process eval p50", &in_process, 0.5)?,
        "ms",
    );
    // Per-layer self time by span; `None` stands for the `axml.open.*`
    // spans of every route. A p90 only where every workload traces
    // enough calls for one.
    let spans = [
        ("axml.registry_get", Some(Name::RegistryGet), false),
        ("axml.open", None, true),
        ("axml.first_piece", Some(Name::FirstPiece), true),
        ("axml.drain", Some(Name::Drain), true),
        ("json.serialize", Some(Name::Json), true),
        ("uxml.load", Some(Name::Load), false),
        ("core.prepare", Some(Name::Prepare), false),
        ("axml.edit", Some(Name::Edit), true),
        ("axml.remove", Some(Name::Remove), false),
    ];
    let picker =
        |name: Option<Name>| move |n: Name| name.map_or(matches!(n, Name::Open(_)), |w| n == w);
    for (label, name, with_p90) in spans {
        let pick = picker(name);
        m.put(
            &format!("{label}_p50_ms"),
            layers.quantile(label, pick, 0.5)?,
            "ms",
        );
        if with_p90 {
            m.put(
                &format!("{label}_p90_ms"),
                layers.quantile(label, pick, 0.9)?,
                "ms",
            );
        }
    }
    for (label, name, _) in spans {
        m.put(
            &format!("{label}.calls"),
            layers.calls(picker(name)) as f64,
            "count",
        );
    }
    for route in [
        Route::Direct,
        Route::ViaNrc,
        Route::Shredded,
        Route::Differential,
    ] {
        let name = Name::Open(route);
        m.put(
            &format!("{}.calls", name.label()),
            layers.calls(|n| n == name) as f64,
            "count",
        );
    }
    let bytes: Vec<f64> = timed
        .iter()
        .filter(|r| r.class == Class::Eval)
        .map(|r| r.reply.body_len as f64)
        .collect();
    m.put(
        "json.bytes_per_eval",
        quantile("json.bytes_per_eval", &bytes, 0.5)?,
        "B",
    );

    // Counters of GET /stats.
    let delta = |from: &Stats, to: &Stats, key: &str| to.get(key) - from.get(key);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let edits = delta(s[0], s[1], "edits_applied");
    m.put(
        "axml.spine_nodes_per_edit",
        ratio(delta(s[0], s[1], "spine_nodes_interned"), edits),
        "count",
    );
    m.put(
        "relational.delta_facts_per_edit",
        ratio(
            delta(s[0], s[1], "delta_facts_retired") + delta(s[0], s[1], "delta_facts_added"),
            edits,
        ),
        "count",
    );
    let hits = delta(s[0], s[1], "memo_hits");
    m.put(
        "axml.memo_hit_ratio",
        ratio(hits, hits + delta(s[0], s[1], "memo_misses")),
        "ratio",
    );
    let incremental = delta(s[0], s[1], "incremental_evals");
    m.put(
        "axml.incremental_ratio",
        ratio(
            incremental,
            incremental + delta(s[0], s[1], "full_fallbacks"),
        ),
        "ratio",
    );
    m.put(
        "uxml.arena_subtrees",
        s[1].get("distinct_subtrees"),
        "count",
    );
    m.put("uxml.arena_child_edges", s[1].get("child_edges"), "count");
    for (name, key) in [
        ("pool.helped", "executed_helped"),
        ("pool.stolen", "executed_stolen"),
        ("pool.injected", "executed_injected"),
    ] {
        m.put(name, delta(s[0], s[1], key), "count");
    }
    Ok(())
}

/// Spans go to `.perfbench/spans-<workload>-<seed>.tsv` under the
/// working directory, written once after the replay.
fn write_spans(t: &Tracer, plan: &Plan, seed: u64) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir)?;
    t.write(&dir.join(format!("spans-{}-{seed}.tsv", plan.workload.name())))
}
