//! `--trace 1`: the per-layer run.
//!
//! A traced pass re-runs every cell-seed of the workload the way
//! `run_campaign_stored` does (store lookup, instance generation,
//! executor map, store write-back), but assembles each run from public
//! surfaces so every layer can be timed from outside: `build_fast_cell`
//! wrapped in [`TimedCell`], `AdversaryKind::build` wrapped in
//! [`TimedAdversary`], both driven by `run_fast`, inside timed job
//! closures on `Engine::map`, with direct `Store::get` / `Store::put`
//! calls keyed by `CellKey::new`. Elimination time comes from the
//! `kernel.eliminate` events `run_fast` already emits, read through a
//! `dyncode_obs::MemorySink`. Untraced passes (telemetry off) alternate
//! with traced ones so `trace.overhead_frac` compares like with like, and
//! the traced results must equal the untraced artifacts run for run.

use crate::layers::{knowledge, TimedAdversary, TimedCell};
use crate::{
    check, cold_pass, delivery_counters, median, parse_campaigns, planned_runs, report_pass,
    warm_pass, Args, Pass,
};
use dyncode_core::params::Instance;
use dyncode_core::runner::build_fast_cell;
use dyncode_dynet::simulator::{RunResult, SimConfig};
use dyncode_engine::artifact::RunRecord;
use dyncode_engine::{Campaign, CellSpec, Engine};
use dyncode_kernel::run_fast;
use dyncode_obs::{Event, MemorySink, Value};
use dyncode_store::{CellKey, Store};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the slowest-cells table.
const TOP_CELLS: usize = 12;

/// Layer times of one traced cell-seed run, in seconds.
#[derive(Clone, Debug, Default)]
struct JobLayers {
    build: f64,
    run: f64,
    adversary: f64,
    validate: f64,
    view: f64,
    compose: f64,
    deliver: f64,
    round_end: f64,
    eliminate: f64,
    job: f64,
    calls: u64,
    edges: u64,
    delivered: u64,
    gained: u64,
}

impl JobLayers {
    /// `run_fast` time less the wrapper's own (extra) validation: the
    /// time the untraced loop spends on this run.
    fn runner(&self) -> f64 {
        self.run - self.validate
    }

    /// The loop residual: CSR load, delivery planning, `run_fast`'s own
    /// connectivity check (about `validate` again) and bookkeeping.
    fn other(&self) -> f64 {
        (self.run
            - self.adversary
            - 2.0 * self.validate
            - self.view
            - self.compose
            - self.deliver
            - self.round_end)
            .max(0.0)
    }

    /// Delivery without elimination (message copy and inbox walk).
    fn gather(&self) -> f64 {
        (self.deliver - self.eliminate).max(0.0)
    }

    fn add(&mut self, o: &JobLayers) {
        self.build += o.build;
        self.run += o.run;
        self.adversary += o.adversary;
        self.validate += o.validate;
        self.view += o.view;
        self.compose += o.compose;
        self.deliver += o.deliver;
        self.round_end += o.round_end;
        self.eliminate += o.eliminate;
        self.job += o.job;
        self.calls += o.calls;
        self.edges += o.edges;
        self.delivered += o.delivered;
        self.gained += o.gained;
    }

    /// This run's layer spans, in the `dyncode-events/v1` format.
    fn spans(&self, fields: &[(String, Value)]) -> Vec<Event> {
        let ns = |s: f64| (s * 1e9) as u64;
        [
            ("bench.run", self.runner()),
            ("bench.cell.build", self.build),
            ("bench.adversary.topology", self.adversary),
            ("bench.graph.validate", self.validate),
            ("bench.kernel.view", self.view),
            ("bench.kernel.compose", self.compose),
            ("bench.kernel.deliver", self.deliver),
            ("bench.kernel.round_end", self.round_end),
            ("bench.kernel.loop_other", self.other()),
        ]
        .into_iter()
        .map(|(name, s)| Event::span_total(name, ns(s), fields.to_vec()))
        .collect()
    }
}

/// Everything one traced pass measured.
struct TracedPass {
    wall: f64,
    results: Vec<Result<RunResult, String>>,
    jobs: Vec<JobLayers>,
    labels: Vec<String>,
    instance: f64,
    get: f64,
    put: f64,
    misses: u64,
    map_wall: f64,
    delivery: [u64; 4],
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One cell-seed run assembled from the public surfaces, every layer
/// timed. Panics exactly where `run_spec_kernel` would: an ineligible
/// spec, a bad topology, or a failed postcondition.
fn traced_run(cell: &CellSpec, inst: &Instance, seed: u64, job: usize) -> (RunResult, JobLayers) {
    let job_start = Instant::now();
    let t = Instant::now();
    let inner = build_fast_cell(&cell.protocol, inst, cell.t).unwrap_or_else(|e| panic!("{e}"));
    let build = secs(t.elapsed());
    let mut fc = TimedCell::new(inner);
    let mut adv = TimedAdversary::new(cell.adversary.build(cell.t));
    let mut config = SimConfig::with_max_rounds(cell.cap);
    config.record_history = cell.record_history;
    config.delivery = cell.delivery.clone();
    let t = Instant::now();
    let r = run_fast(&mut fc, &mut adv, &config, seed);
    let run = secs(t.elapsed());
    let end = fc.final_view();
    if r.completed {
        let term = cell.protocol.termination();
        if let Err(e) = term.verify(&end, cell.params.k) {
            panic!(
                "completed {} run failed its {} postcondition (seed {seed}): {e}",
                cell.protocol,
                term.name()
            );
        }
    }
    let mut lay = JobLayers {
        build,
        run,
        adversary: secs(adv.topology),
        validate: secs(adv.validate),
        view: secs(fc.view.get()),
        compose: secs(fc.compose),
        deliver: secs(fc.deliver),
        round_end: secs(fc.round_end),
        calls: adv.calls,
        edges: adv.edges,
        delivered: fc.delivered,
        gained: knowledge(&end).saturating_sub(fc.knowledge_start.get().unwrap_or(0)),
        ..JobLayers::default()
    };
    lay.job = secs(job_start.elapsed());
    let fields = vec![
        ("cell".to_string(), Value::from(cell.label())),
        ("seed".to_string(), Value::from(seed)),
        ("job".to_string(), Value::from(job)),
    ];
    for ev in lay.spans(&fields) {
        dyncode_obs::emit(&ev);
    }
    (r, lay)
}

/// One traced pass: lookups against the fresh `store` (all misses),
/// instances, the timed executor map, then write-back.
fn traced_pass(engine: &Engine, campaigns: &[Campaign], store: &Store) -> TracedPass {
    let before = delivery_counters();
    let start = Instant::now();
    let mut slots: Vec<(CellSpec, u64, CellKey)> = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();
    let mut slot_inst: Vec<usize> = Vec::new();
    let (mut get, mut instance, mut misses) = (0.0, 0.0, 0u64);
    for c in campaigns {
        for cell in c.cells() {
            let t = Instant::now();
            instances.push(cell.instance());
            instance += secs(t.elapsed());
            for &seed in &c.seeds {
                let key = CellKey::new(&cell, seed);
                let t = Instant::now();
                let hit = store.get(&key).is_some();
                get += secs(t.elapsed());
                misses += u64::from(!hit);
                slots.push((cell.clone(), seed, key));
                slot_inst.push(instances.len() - 1);
            }
        }
    }
    let jobs: Vec<_> = slots
        .iter()
        .zip(&slot_inst)
        .enumerate()
        .map(|(i, ((cell, seed, _), &ii))| {
            let inst = &instances[ii];
            move || traced_run(cell, inst, *seed, i)
        })
        .collect();
    let t = Instant::now();
    let outcomes = engine.map(jobs);
    let map_wall = secs(t.elapsed());
    let mut put = 0.0;
    let (mut results, mut layers) = (Vec::new(), Vec::new());
    for ((_, _, key), outcome) in slots.iter().zip(outcomes) {
        match outcome {
            Ok((r, lay)) => {
                let t = Instant::now();
                // As in the campaign runner, a failed write-back only
                // costs the next run's warmth; the warm check catches it.
                let _ = store.put(key, &r);
                put += secs(t.elapsed());
                results.push(Ok(r));
                layers.push(lay);
            }
            Err(e) => {
                results.push(Err(e.message));
                layers.push(JobLayers::default());
            }
        }
    }
    let wall = secs(start.elapsed());
    let after = delivery_counters();
    TracedPass {
        wall,
        results,
        jobs: layers,
        labels: slots.iter().map(|(c, _, _)| c.label()).collect(),
        instance,
        get,
        put,
        misses,
        map_wall,
        delivery: std::array::from_fn(|i| after[i] - before[i]),
    }
}

/// Attributes each run's `kernel.eliminate` total (emitted by `run_fast`
/// just before the run's `bench.run` span, on the same thread) to its job.
fn attribute_elimination(events: &[Event], jobs: &mut [JobLayers]) {
    let mut pending: HashMap<u32, u64> = HashMap::new();
    for ev in events {
        match ev.name.as_str() {
            "kernel.eliminate" => {
                pending.insert(ev.thread, ev.dur_ns.unwrap_or(0));
            }
            "bench.run" => {
                let elim = pending.remove(&ev.thread).unwrap_or(0);
                if let Some(j) = ev.field_u64("job").and_then(|j| jobs.get_mut(j as usize)) {
                    j.eliminate = elim as f64 / 1e9;
                }
            }
            _ => {}
        }
    }
}

/// The slowest cells with their layer split, as evidence for keeping or
/// deleting a fast cell. `runner_s` is per traced pass, summed over the
/// cell's seeds.
fn cell_table(per_cell: &BTreeMap<String, JobLayers>, passes: f64) -> String {
    let mut rows: Vec<(&String, &JobLayers)> = per_cell.iter().collect();
    rows.sort_by(|a, b| b.1.runner().total_cmp(&a.1.runner()));
    let mut out = String::from(
        "runner_s  adv%  valid%  view%  compose%  elim%  gather%  round_end%  other%  cell\n",
    );
    for (label, l) in rows.into_iter().take(TOP_CELLS) {
        let p = |x: f64| 100.0 * x / l.runner().max(1e-12);
        out.push_str(&format!(
            "{:8.3}  {:4.1}  {:6.1}  {:5.1}  {:8.1}  {:5.1}  {:7.1}  {:10.1}  {:6.1}  {label}\n",
            l.runner() / passes,
            p(l.adversary),
            p(l.validate),
            p(l.view),
            p(l.compose),
            p(l.eliminate),
            p(l.gather()),
            p(l.round_end),
            p(l.other()),
        ));
    }
    out
}

/// Writes the traced spans, then a final metrics snapshot, as one
/// `dyncode-events/v1` stream that `experiments obs check` and
/// `obs summarize` read.
fn write_events(path: &Path, events: &[Event]) -> Result<(), String> {
    let mut text = Event::stream_meta().to_jsonl();
    text.push('\n');
    for ev in events
        .iter()
        .cloned()
        .chain(dyncode_obs::metrics::snapshot_events())
    {
        text.push_str(&ev.to_jsonl());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-layer run: alternating untraced and traced passes until
/// `--seconds` is spent (at least one of each), then checks and metrics.
pub fn run(args: &Args, work_dir: &Path) -> Result<String, String> {
    let campaigns = parse_campaigns(&args.workload.campaign_texts(args.seed))?;
    let engine = Engine::new(args.workload.threads());
    let threads = engine.threads() as f64;
    println!("{{\"plan\": {}}}", 2 * planned_runs(&campaigns));

    let sink = Arc::new(MemorySink::default());
    let mut correct = true;
    let (mut untraced, mut traced): (Vec<Pass>, Vec<TracedPass>) = (Vec::new(), Vec::new());
    let mut events: Vec<Event> = Vec::new();
    let mut traced_store = None;
    let started = Instant::now();
    loop {
        let pair = untraced.len();
        // Alternate which side runs first, so drift hits both alike.
        for side in [pair % 2, 1 - pair % 2] {
            let dir = work_dir.join(format!("{}-{pair}", ["cold", "traced"][side]));
            let store = Store::open(&dir).map_err(|e| e.to_string())?;
            if side == 0 {
                let p = cold_pass(&engine, &campaigns, &store)?;
                report_pass(&p);
                untraced.push(p);
            } else {
                let id = dyncode_obs::install(sink.clone());
                let mut p = traced_pass(&engine, &campaigns, &store);
                dyncode_obs::uninstall(id);
                let evs = sink.take();
                attribute_elimination(&evs, &mut p.jobs);
                events.extend(evs);
                let failed = p.results.iter().filter(|r| r.is_err()).count();
                println!(
                    "{{\"pass\": {{\"attempted\": {}, \"failed\": {failed}}}}}",
                    p.results.len()
                );
                traced.push(p);
                traced_store = Some(store);
            }
        }
        let per_pair = started.elapsed().as_secs_f64() / untraced.len() as f64;
        if started.elapsed().as_secs_f64() + per_pair > args.seconds {
            break;
        }
    }

    // Traced results equal the untraced artifacts, run for run.
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in &untraced {
        attempted += p.attempted;
        failed += p.failed;
    }
    let reference: Vec<&RunRecord> = untraced[0]
        .artifacts
        .iter()
        .flat_map(|a| &a.cells)
        .flat_map(|c| &c.runs)
        .collect();
    for p in &traced {
        attempted += p.results.len() as u64;
        let mut same = p.results.len() == reference.len();
        for (r, rec) in p.results.iter().zip(&reference) {
            match r {
                Ok(r) => {
                    failed += u64::from(!r.completed);
                    same &= RunRecord::from_run(rec.seed, r) == **rec;
                }
                Err(e) => {
                    eprintln!("perfbench: traced run failed: {e}");
                    failed += 1;
                    same = false;
                }
            }
        }
        check(
            same,
            "traced results equal the untraced results",
            &mut correct,
        );
    }
    check(failed == 0, "every seed-run completes", &mut correct);

    // The warm re-run against the store the last traced pass filled.
    let store = traced_store.expect("at least one traced pass");
    let (warm_s, hits, identical) = warm_pass(&engine, &campaigns, &store, &untraced[0].artifacts)?;
    check(
        identical && hits == planned_runs(&campaigns) as u64,
        "warm re-run over traced results is byte-identical with 100% store hits",
        &mut correct,
    );

    // Per-layer totals, averaged over traced passes.
    let passes = traced.len() as f64;
    let mut total = JobLayers::default();
    let mut per_cell: BTreeMap<String, JobLayers> = BTreeMap::new();
    let (mut instance, mut get, mut put, mut misses, mut util, mut max_job) =
        (0.0, 0.0, 0.0, 0u64, 0.0, 0.0f64);
    let mut delivery = [0u64; 4];
    for p in &traced {
        for (label, j) in p.labels.iter().zip(&p.jobs) {
            total.add(j);
            per_cell.entry(label.clone()).or_default().add(j);
            max_job = max_job.max(j.job);
        }
        instance += p.instance;
        get += p.get;
        put += p.put;
        misses += p.misses;
        let busy: f64 = p.jobs.iter().map(|j| j.job).sum();
        util += busy / (threads * p.map_wall);
        for (d, x) in delivery.iter_mut().zip(p.delivery) {
            *d += x;
        }
    }
    let [sent, delivered, collided, dropped] = delivery;
    check(
        sent == delivered + collided + dropped,
        "delivery accounting: sent == delivered + collided + dropped",
        &mut correct,
    );
    let runner = total.runner();
    let untraced_wall = median(&untraced.iter().map(|p| p.wall).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.wall).collect::<Vec<_>>());
    let per = |x: f64| x / passes;
    let values = BTreeMap::from([
        ("runner_s", per(runner)),
        ("adversary.topology_s", per(total.adversary)),
        ("adversary.calls", per(total.calls as f64)),
        ("graph.validate_s", per(total.validate)),
        (
            "graph.edges_mean",
            total.edges as f64 / total.calls.max(1) as f64,
        ),
        ("kernel.view_s", per(total.view)),
        ("kernel.compose_s", per(total.compose)),
        ("kernel.eliminate_s", per(total.eliminate)),
        ("kernel.deliver_s", per(total.gather())),
        ("kernel.round_end_s", per(total.round_end)),
        ("kernel.loop_other_s", per(total.other())),
        (
            "kernel.useful_frac",
            total.gained as f64 / total.delivered.max(1) as f64,
        ),
        ("cell.build_s", per(total.build)),
        ("instance.generate_s", per(instance)),
        ("executor.busy_s", per(total.job)),
        ("executor.util", per(util)),
        ("executor.max_job_s", max_job),
        ("store.put_s", per(put)),
        ("store.get_s", per(get)),
        ("store.hits", hits as f64),
        ("store.misses", per(misses as f64)),
        ("store.warm_s", warm_s),
        ("delivery.sent", per(sent as f64)),
        ("delivery.delivered", per(delivered as f64)),
        ("delivery.collided", per(collided as f64)),
        ("delivery.dropped", per(dropped as f64)),
        (
            "share.adversary_validate",
            (total.adversary + total.validate) / runner,
        ),
        (
            "share.compose_eliminate",
            (total.compose + total.eliminate) / runner,
        ),
        ("trace.overhead_frac", traced_wall / untraced_wall - 1.0),
    ]);

    let name = args.workload.name();
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let events_path = args.out.join(format!("trace-{name}.jsonl"));
    write_events(&events_path, &events)?;
    let table = cell_table(&per_cell, passes);
    let table_path = args.out.join(format!("cells-{name}.txt"));
    std::fs::write(&table_path, &table).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: {name}: {} traced / {} untraced passes; spans in {}\n{table}",
        traced.len(),
        untraced.len(),
        events_path.display()
    );
    Ok(crate::metrics::result_line(
        correct,
        attempted,
        failed,
        crate::metrics::PER_LAYER,
        &values,
    ))
}
