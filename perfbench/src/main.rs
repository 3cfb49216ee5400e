//! `perfbench`: one workload of the dyncode benchmark, run in this
//! process so its peak RSS is its own.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! `--trace 0` times whole cold campaign passes through
//! `run_campaign_stored` with telemetry off and prints the end-to-end
//! metrics. `--trace 1` alternates untraced passes with traced ones,
//! which re-run the same cells through timing wrappers around the public
//! `Adversary`, `FastCell`, executor and store surfaces, and prints the
//! per-layer metrics. Progress lines (`{"plan": …}`, `{"pass": …}`) go
//! to stdout ahead of the result line so a supervisor that stops a
//! runaway pass can still count what was attempted; `perfbench/run.py`
//! is that supervisor.

mod layers;
mod metrics;
mod traced;
mod workload;

use dyncode_core::runner::{build_fast_cell, resolve_kernel, Kernel};
use dyncode_engine::{Artifact, Campaign, Engine};
use dyncode_store::{run_campaign_stored, sha256_hex, RunOptions, Store};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// Set-up repetitions before each cold pass; `setup_s` is the median of
/// all of them. Spreading them over the run, like the passes, keeps slow
/// phases of a shared machine from landing on set-up alone.
const SETUP_REPS_PER_PASS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                flags.insert(flag.as_str(), value.clone());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let get = |k: &str| flags.get(k).cloned().ok_or(format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(&get("--workload")?)?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        out: PathBuf::from(flags.get("--out").map_or("perfbench/out", String::as_str)),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn parse_campaigns(texts: &[String]) -> Result<Vec<Campaign>, String> {
    texts.iter().map(|t| Campaign::parse(t)).collect()
}

/// The median of `xs` (which must be non-empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One set-up as a user pays it before the first round: parse the
/// campaign texts, generate every cell's instance, build each cell's
/// fast-kernel state once, and open the engine and a fresh store.
fn setup_once(args: &Args, texts: &[String], store_dir: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let campaigns = parse_campaigns(texts)?;
    for c in &campaigns {
        for cell in c.cells() {
            let inst = cell.instance();
            if resolve_kernel(&cell.protocol, cell.kernel) == Kernel::Fast {
                std::hint::black_box(build_fast_cell(&cell.protocol, &inst, cell.t)?);
            }
        }
    }
    std::hint::black_box(Engine::new(args.workload.threads()));
    std::hint::black_box(Store::open(store_dir).map_err(|e| e.to_string())?);
    Ok(start.elapsed().as_secs_f64())
}

/// The delivery accounting counters (process-global obs metrics):
/// sent, delivered, collided, dropped.
fn delivery_counters() -> [u64; 4] {
    [
        "delivery.sent",
        "delivery.delivered",
        "delivery.collided",
        "delivery.dropped",
    ]
    .map(dyncode_obs::metrics::counter_value)
}

/// One cold pass of every campaign through the stored campaign runner.
pub struct Pass {
    /// Wall seconds from the first cell to the last verified result.
    pub wall: f64,
    /// One artifact per campaign.
    pub artifacts: Vec<Artifact>,
    /// Seed-runs attempted.
    pub attempted: u64,
    /// Seed-runs failed: contained panics (`CellError`, postcondition
    /// failures included) and runs that hit their round cap.
    pub failed: u64,
    /// Simulated rounds summed over runs.
    pub rounds: u64,
    /// Delivery counter deltas (see [`delivery_counters`]).
    pub delivery: [u64; 4],
}

fn cold_pass(engine: &Engine, campaigns: &[Campaign], store: &Store) -> Result<Pass, String> {
    let before = delivery_counters();
    let start = Instant::now();
    let mut artifacts = Vec::with_capacity(campaigns.len());
    for c in campaigns {
        let opts = RunOptions {
            store: Some(store),
            ..RunOptions::default()
        };
        artifacts.push(run_campaign_stored(engine, c, &opts)?.0);
    }
    let (mut attempted, mut failed, mut rounds) = (0, 0, 0);
    for cell in artifacts.iter().flat_map(|a| &a.cells) {
        attempted += (cell.runs.len() + cell.errors.len()) as u64;
        failed += cell.errors.len() as u64;
        for r in &cell.runs {
            failed += u64::from(!r.completed);
            rounds += r.rounds as u64;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let after = delivery_counters();
    Ok(Pass {
        wall,
        artifacts,
        attempted,
        failed,
        rounds,
        delivery: std::array::from_fn(|i| after[i] - before[i]),
    })
}

/// A check failure: reported on stderr and folded into `correct`.
fn check(ok: bool, what: &str, correct: &mut bool) {
    if !ok {
        eprintln!("perfbench: CHECK FAILED: {what}");
        *correct = false;
    }
}

/// The warm re-run of `campaigns` against the store a cold pass filled:
/// returns its wall seconds and whether every run was a hit and every
/// artifact is byte-identical to `cold`.
fn warm_pass(
    engine: &Engine,
    campaigns: &[Campaign],
    store: &Store,
    cold: &[Artifact],
) -> Result<(f64, u64, bool), String> {
    let start = Instant::now();
    let (mut hits, mut identical) = (0u64, true);
    for (c, cold) in campaigns.iter().zip(cold) {
        let opts = RunOptions {
            store: Some(store),
            ..RunOptions::default()
        };
        let (warm, stats) = run_campaign_stored(engine, c, &opts)?;
        hits += stats.store_hits as u64;
        identical &= stats.computed == 0 && warm.to_json_string() == cold.to_json_string();
    }
    Ok((start.elapsed().as_secs_f64(), hits, identical))
}

/// Prints the per-workload digest of `(label, seed, rounds, total_bits)`
/// to stderr. It is informational: an RNG-stream change is expected to
/// move it, so it never fails a run.
fn print_digest(workload: Workload, artifacts: &[Artifact]) {
    let mut rows = String::new();
    for cell in artifacts.iter().flat_map(|a| &a.cells) {
        for r in &cell.runs {
            rows.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                cell.label, r.seed, r.rounds, r.total_bits
            ));
        }
    }
    eprintln!(
        "perfbench: {} digest {} over {} runs",
        workload.name(),
        sha256_hex(rows.as_bytes()),
        rows.lines().count()
    );
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The runs one pass attempts, announced before the first pass.
fn planned_runs(campaigns: &[Campaign]) -> usize {
    campaigns
        .iter()
        .map(|c| c.cells().len() * c.seeds.len())
        .sum()
}

fn run(args: &Args) -> Result<(), String> {
    let work_dir = args
        .out
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let result = if args.trace {
        traced::run(args, &work_dir)
    } else {
        end_to_end(args, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let line = result?;
    println!("{line}");
    Ok(())
}

/// Announces a pass's outcome to the supervisor.
fn report_pass(p: &Pass) {
    println!(
        "{{\"pass\": {{\"attempted\": {}, \"failed\": {}}}}}",
        p.attempted, p.failed
    );
}

/// `--trace 0`: cold passes, each after `SETUP_REPS_PER_PASS` timed
/// set-ups, until `--seconds` is spent; then one warm re-run.
fn end_to_end(args: &Args, work_dir: &Path) -> Result<String, String> {
    let texts = args.workload.campaign_texts(args.seed);
    let mut setups = Vec::new();
    let campaigns = parse_campaigns(&texts)?;
    let engine = Engine::new(args.workload.threads());
    println!("{{\"plan\": {}}}", planned_runs(&campaigns));

    let mut correct = true;
    let (mut walls, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let mut first: Option<Vec<String>> = None;
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let (last_store, last) = loop {
        for _ in 0..SETUP_REPS_PER_PASS {
            let dir = work_dir.join(format!("setup-{}", setups.len()));
            setups.push(setup_once(args, &texts, &dir)?);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let store_dir = work_dir.join(format!("cold-{}", walls.len()));
        let store = Store::open(&store_dir).map_err(|e| e.to_string())?;
        let pass = cold_pass(&engine, &campaigns, &store)?;
        report_pass(&pass);
        walls.push(pass.wall);
        attempted += pass.attempted;
        failed += pass.failed;
        let [sent, delivered, collided, dropped] = pass.delivery;
        check(
            sent == delivered + collided + dropped,
            "delivery accounting: sent == delivered + collided + dropped",
            &mut correct,
        );
        let bytes: Vec<String> = pass
            .artifacts
            .iter()
            .map(Artifact::to_json_string)
            .collect();
        match &first {
            None => {
                // The peak through the first pass: later passes add only
                // allocator reuse that varies with how many passes fit.
                peak_rss = peak_rss_mb()?;
                first = Some(bytes);
            }
            Some(f) => check(
                *f == bytes,
                "cold passes give identical artifacts",
                &mut correct,
            ),
        }
        let spent = started.elapsed().as_secs_f64();
        if spent + median(&walls) > args.seconds {
            break (store, pass);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
    };
    check(failed == 0, "every seed-run completes", &mut correct);

    let (_, hits, identical) = warm_pass(&engine, &campaigns, &last_store, &last.artifacts)?;
    check(
        identical && hits == planned_runs(&campaigns) as u64,
        "warm re-run is byte-identical with 100% store hits",
        &mut correct,
    );
    print_digest(args.workload, &last.artifacts);

    let wall = median(&walls);
    eprintln!(
        "perfbench: {} {} cold passes, wall {:?} s",
        args.workload.name(),
        walls.len(),
        walls
    );
    let values = BTreeMap::from([
        ("wall_s", wall),
        ("rounds_per_s", last.rounds as f64 / wall),
        ("peak_rss_mb", peak_rss),
        ("setup_s", median(&setups)),
    ]);
    Ok(metrics::result_line(
        correct,
        attempted,
        failed,
        metrics::END_TO_END,
        &values,
    ))
}
