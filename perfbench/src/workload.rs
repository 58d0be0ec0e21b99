//! The three workloads and the closed loop that runs them.
//!
//! One run, within about `--seconds` in all: set the service up several
//! times (inputs plus initial build and first checkpoint), anonymize the
//! snapshot through both bulk paths, then run epochs of ingest → commit →
//! serve with one client, in whole rounds of the checkpoint cadence. Now
//! and then the service is dropped right after a commit past a
//! checkpoint and recovered from its directory. Every output is checked
//! against an independent computation (see `checks`).

use crate::checks;
use crate::inputs::{poi_store, population, Mirror, Request};
use crate::probe::{self, mean, median, ms, Stopwatch};
use crate::service::{Deployment, Served, Service};
use lbs_core::{Anonymizer, DpScratch, IncrementalAnonymizer, IncrementalReport};
use lbs_metrics::{Counter, Metrics, MetricsSnapshot, Stage};
use lbs_model::{encode_policy, UserUpdate};
use lbs_parallel::{
    anonymize_work_stealing, refresh_parallel, EngineConfig, ParallelOutcome, ScratchPool,
};
use lbs_query::Poi;
use lbs_runtime::{Rung, RuntimeError};
use lbs_tree::{TreeConfig, TreeKind};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["bulk_bay", "service_churn", "service_read"];

/// The make-up of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Users in the generated master set.
    pub master_users: usize,
    /// Users sampled from it (the whole master when equal).
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Jurisdictions of the service (1 = a single runtime).
    pub shards: usize,
    /// Worker threads of each commit-time DP refresh.
    pub refresh_workers: usize,
    /// Moves per epoch.
    pub batch: usize,
    /// Of these, long moves that may cross jurisdictions.
    pub long_moves: usize,
    /// Requests served per epoch.
    pub requests: usize,
    /// Requests per timed batch of `serve_us`.
    pub request_batch: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Whether an untimed round of the two bulk paths comes first. At
    /// 1.75M the set-ups' initial builds already warm the process.
    pub warm_up: bool,
    /// Least timed rounds of the two bulk paths.
    pub bulk_rounds: usize,
    /// Share of the measuring time that goes to the bulk phase.
    pub bulk_share: f64,
    /// Least rounds of [`CHECKPOINT_EVERY`] epochs.
    pub service_rounds: usize,
    /// Recoveries per run (`recover_s` is their median).
    pub recoveries: usize,
    /// Jurisdictions of the §V engine.
    pub engine_jurisdictions: usize,
}

/// Threads the program may use (`nproc` of the reference host).
pub const WORKERS: usize = 2;
/// Commits per checkpoint.
pub const CHECKPOINT_EVERY: u64 = 4;
/// Checkpoint generations kept by retention GC.
pub const RETAIN: usize = 2;
/// One request in this many has its answer checked by a linear scan.
pub const ANSWER_SAMPLE_EVERY: usize = 16;

impl Spec {
    /// The full-size workload `name`.
    pub fn full(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            master_users: 1_750_000,
            users: 200_000,
            k: 10,
            shards: 1,
            refresh_workers: WORKERS,
            batch: 64,
            long_moves: 0,
            requests: 256,
            request_batch: 256,
            setups: 5,
            warm_up: true,
            bulk_rounds: 10,
            bulk_share: 0.4,
            service_rounds: 4,
            recoveries: 5,
            engine_jurisdictions: 64,
        };
        match name {
            "bulk_bay" => Some(Spec {
                name: "bulk_bay",
                users: 1_750_000,
                batch: 4096,
                requests: 1024,
                setups: 2,
                warm_up: false,
                bulk_rounds: 2,
                bulk_share: 0.3,
                service_rounds: 1,
                recoveries: 1,
                ..base
            }),
            "service_churn" => Some(Spec {
                name: "service_churn",
                k: 50,
                shards: 4,
                // With 2 refresh workers a commit waits on both vCPUs, and
                // a stretch of contention on the reference host's second
                // vCPU slowed whole runs by up to half: `commit_ms` spread
                // 0.34 across ten runs, more than its bound. One worker, the
                // fleet's default, leaves the parallel refresh to the other
                // workloads.
                refresh_workers: 1,
                batch: 4096,
                long_moves: 4096 / 16,
                ..base
            }),
            // 10,000 requests per epoch: `lbs-sim`'s request rate of 5%
            // of the users.
            "service_read" => {
                Some(Spec { name: "service_read", requests: 10_000, request_batch: 500, ..base })
            }
            _ => None,
        }
    }

    /// The same workload at a size that runs in about a second.
    #[cfg(test)]
    pub fn small(name: &str) -> Option<Spec> {
        let full = Spec::full(name)?;
        Some(Spec {
            master_users: 20_000,
            users: full.users.min(8_000),
            batch: full.batch.min(256),
            long_moves: full.long_moves.min(16),
            requests: full.requests.min(512),
            request_batch: full.request_batch.min(128),
            setups: 2,
            bulk_rounds: 2,
            service_rounds: 1,
            recoveries: 1,
            // 64 jurisdictions of ~125 users at k = 50 sit outside the
            // paper's 1% regime; 8 keep the small run inside it.
            engine_jurisdictions: 8,
            ..full
        })
    }
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Attempted and failed operations per kind, plus failed output checks.
#[derive(Debug, Default)]
pub struct Ledger {
    /// kind → (attempted, failed).
    pub ops: BTreeMap<&'static str, (u64, u64)>,
    /// Output checks that failed, with their message.
    pub check_failures: Vec<String>,
    /// Operations that failed, with their error.
    pub op_failures: Vec<String>,
}

impl Ledger {
    fn op<T, E: Display>(&mut self, kind: &'static str, result: Result<T, E>) -> Option<T> {
        let entry = self.ops.entry(kind).or_default();
        entry.0 += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                entry.1 += 1;
                self.op_failures.push(format!("{kind}: {e}"));
                None
            }
        }
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.check_failures.push(format!("{what}: {e}"));
        }
    }

    /// Operations attempted, all kinds.
    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|(a, _)| a).sum()
    }

    /// Operations failed, all kinds.
    pub fn failed(&self) -> u64 {
        self.ops.values().map(|(_, f)| f).sum()
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (filled only when tracing).
    pub per_layer: Vec<Metric>,
    /// The samples behind each median, in the order taken.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Operation counts and check failures.
    pub ledger: Ledger,
    /// Seconds into the run at which each phase ended.
    pub phases: Vec<(&'static str, f64)>,
}

/// A fatal error: the run cannot continue (set-up failed).
#[derive(Debug)]
pub struct Fatal(pub String);

/// Layer observations gathered in a traced run.
#[derive(Default)]
struct Layers {
    bulk: Option<MetricsSnapshot>,
    engine: Option<MetricsSnapshot>,
    tree_nodes: usize,
    faults_per_build: Vec<f64>,
    busy_ratio: Vec<f64>,
    stage_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    policy_ms: Vec<f64>,
    rows_recomputed: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    ingest_ms: Vec<f64>,
    migrations: Vec<f64>,
    checkpoint_commit_ms: Vec<f64>,
    wal_bytes: u64,
    moves: u64,
    service: Option<(MetricsSnapshot, MetricsSnapshot)>,
    recoveries: Vec<(MetricsSnapshot, MetricsSnapshot)>,
    replayed: usize,
    policy_bytes: usize,
    served: u64,
    serve_time: Duration,
    candidates: u64,
    trace_overhead_pct: f64,
}

/// Mirrors each jurisdiction's DP state so the traced run can time the
/// core layer's staging, refresh and extraction one by one on the same
/// batches the service commits.
struct Shadow {
    engines: Vec<IncrementalAnonymizer>,
    pool: ScratchPool,
}

impl Shadow {
    fn new(service: &Service, k: usize) -> Result<Shadow, String> {
        let engines = service
            .jurisdictions()
            .into_iter()
            .map(|(db, map, _)| {
                IncrementalAnonymizer::new(db, TreeConfig::lazy(TreeKind::Binary, map, k), k)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("shadow build failed: {e}"))?;
        Ok(Shadow { engines, pool: ScratchPool::new() })
    }

    fn commit(
        &mut self,
        slices: &[Vec<UserUpdate>],
        workers: usize,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let config = EngineConfig { workers, ..EngineConfig::default() };
        let (mut stage, mut refresh, mut policy) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut report = IncrementalReport::default();
        for (engine, slice) in self.engines.iter_mut().zip(slices) {
            if slice.is_empty() {
                continue;
            }
            let t = Stopwatch::start();
            engine.stage_updates(slice).map_err(|e| e.to_string())?;
            stage += t.elapsed();
            let t = Stopwatch::start();
            let r = refresh_parallel(engine, &config, Some(&self.pool), None, &|| false)
                .map_err(|e| e.to_string())?;
            refresh += t.elapsed();
            let t = Stopwatch::start();
            std::hint::black_box(engine.policy().map_err(|e| e.to_string())?);
            policy += t.elapsed();
            report.rows_recomputed += r.rows_recomputed;
            report.cache_hits += r.cache_hits;
            report.cache_misses += r.cache_misses;
        }
        layers.stage_ms.push(ms(stage));
        layers.refresh_ms.push(ms(refresh));
        layers.policy_ms.push(ms(policy));
        layers.rows_recomputed.push(report.rows_recomputed as f64);
        layers.cache_hits += report.cache_hits as u64;
        layers.cache_misses += report.cache_misses as u64;
        Ok(())
    }
}

/// How much a counter grew over a window of the run.
fn grew(window: &(MetricsSnapshot, MetricsSnapshot), c: Counter) -> u64 {
    window.1.counter(c).saturating_sub(window.0.counter(c))
}

/// How much a stage's total time grew over a window of the run.
fn grew_stage(window: &(MetricsSnapshot, MetricsSnapshot), s: Stage) -> Duration {
    window.1.stage(s).total().saturating_sub(window.0.stage(s).total())
}

/// Runs workload `spec` with `seed` for about `seconds` in all, set-up
/// and recovery included, keeping its durable state under `work`. A
/// traced run also fills in the per-layer metrics.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Outcome, Fatal> {
    let clock = Stopwatch::start();
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let dir = work.join("service");
    let fatal = |what: &str, e: &dyn Display| Fatal(format!("{what}: {e}"));
    let service_metrics = traced.then(|| Arc::new(Metrics::new()));

    // Set-up, several times: inputs, initial build, first checkpoint. A
    // traced run reports no set-up time, so it sets up once.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if traced { 1 } else { spec.setups } {
        drop(built.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t = Stopwatch::start();
        let pop = population(spec.master_users, spec.users, seed);
        let deployment = Deployment {
            k: spec.k,
            map: pop.map,
            shards: spec.shards,
            refresh_workers: spec.refresh_workers,
            checkpoint_every: CHECKPOINT_EVERY,
            retain_checkpoints: RETAIN,
        };
        let store = poi_store(pop.map, &pop.pois).map_err(|e| fatal("POI store", &e))?;
        let service = deployment
            .create(&dir, &pop.db, store, service_metrics.as_ref())
            .map_err(|e| fatal("service creation failed", &e))?;
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((pop, deployment, service));
    }
    let (pop, deployment, mut service) = built.ok_or_else(|| Fatal("no set-up ran".into()))?;
    let mut phases = vec![("set-up", clock.elapsed().as_secs_f64())];

    // The measuring time is what is left of `seconds` after the set-ups
    // and a reserve for the final checks, which cost less than one
    // set-up. The bulk phase takes its share of the measuring time, the
    // service epochs (recoveries included) the rest.
    let reserve = Duration::from_secs_f64(median(&setup_s));
    let measure_end = Duration::from_secs_f64(seconds).saturating_sub(reserve);
    let bulk_end =
        clock.elapsed() + measure_end.saturating_sub(clock.elapsed()).mul_f64(spec.bulk_share);

    // Bulk anonymization of the snapshot through both paths. A traced run
    // instruments the timed rounds in the order plain, traced, traced,
    // plain, so that neither kind always comes first, and reports how
    // much slower the traced rounds are.
    let bulk_metrics = traced.then(Metrics::new);
    let engine_metrics = traced.then(Metrics::new);
    let engine_config = EngineConfig { workers: WORKERS, ..EngineConfig::default() };
    let tree_config = TreeConfig::lazy(TreeKind::Binary, pop.map, spec.k);
    let mut scratch = DpScratch::new();
    let (mut anonymize_s, mut parallel_s) = (Vec::new(), Vec::new());
    let (mut traced_anonymize_s, mut traced_parallel_s) = (Vec::new(), Vec::new());
    let mut last: Option<(Anonymizer, ParallelOutcome)> = None;
    for round in 0usize.. {
        let warm_up = spec.warm_up && round == 0;
        let timed = round - usize::from(spec.warm_up && round > 0);
        let whole = !traced || timed % 4 == 0;
        if !warm_up && timed >= spec.bulk_rounds && whole && clock.elapsed() >= bulk_end {
            break;
        }
        let instrumented = !warm_up && traced && matches!(timed % 4, 1 | 2);
        drop(last.take());
        let metrics = if instrumented { bulk_metrics.as_ref() } else { None };
        let faults = probe::minor_faults();
        let t = Stopwatch::start();
        let single = Anonymizer::build_instrumented(
            &pop.db,
            tree_config,
            spec.k,
            Some(&mut scratch),
            metrics,
        );
        let took = t.elapsed();
        let faults = probe::minor_faults() - faults;
        let Some(single) = ledger.op("anonymize", single) else { continue };
        let metrics = if instrumented { engine_metrics.as_ref() } else { None };
        let t = Stopwatch::start();
        let engine = anonymize_work_stealing(
            &pop.db,
            pop.map,
            spec.k,
            spec.engine_jurisdictions,
            &engine_config,
            metrics,
        );
        let engine_took = t.elapsed();
        let Some(engine) = ledger.op("anonymize", engine) else { continue };
        if instrumented {
            traced_anonymize_s.push(took.as_secs_f64());
            traced_parallel_s.push(engine_took.as_secs_f64());
            layers.faults_per_build.push(faults as f64);
            let busy: Duration = engine.servers.iter().map(|s| s.elapsed).sum();
            let capacity = engine.server_wall_time.as_secs_f64() * engine.workers.max(1) as f64;
            layers.busy_ratio.push(busy.as_secs_f64() / capacity.max(f64::MIN_POSITIVE));
        } else if !warm_up {
            anonymize_s.push(took.as_secs_f64());
            parallel_s.push(engine_took.as_secs_f64());
        }
        last = Some((single, engine));
    }
    if let Some((single, engine)) = &last {
        ledger.check(
            "single-path policy",
            checks::policy_is_k_anonymous(&pop.db, single.policy(), spec.k),
        );
        ledger
            .check("single-path cost", checks::cost_matches_areas(single.cost(), single.policy()));
        ledger
            .check("engine policy", checks::policy_is_k_anonymous(&pop.db, &engine.policy, spec.k));
        ledger.check("engine cost", checks::cost_matches_areas(engine.total_cost, &engine.policy));
        ledger.check(
            "engine vs optimum",
            checks::engine_cost_within_one_percent(single.cost(), engine.total_cost),
        );
        layers.tree_nodes = single.tree_stats().nodes;
    }
    drop(last);
    drop(scratch);
    phases.push(("bulk", clock.elapsed().as_secs_f64()));
    layers.bulk = bulk_metrics.map(|m| m.snapshot());
    layers.engine = engine_metrics.map(|m| m.snapshot());
    if traced {
        let slower = |traced: &[f64], plain: &[f64]| (median(traced) / median(plain) - 1.0) * 100.0;
        layers.trace_overhead_pct = mean(&[
            slower(&traced_anonymize_s, &anonymize_s),
            slower(&traced_parallel_s, &parallel_s),
        ]);
    }

    // Service epochs: ingest → commit → serve, in rounds that end with the
    // commit that writes a checkpoint. The recoveries are spread over the
    // phase: at their due time, right after the first epoch of a round has
    // committed past the last checkpoint, the service is dropped and
    // recovered from its directory, which replays that one WAL record, and
    // the run goes on with the recovered service. A recovered runtime
    // counts its checkpoint cadence afresh, so such a round has one epoch
    // more.
    let (map, pois) = (pop.map, pop.pois);
    let mut mirror = Mirror::new(pop.db);
    let mut shadow = match traced {
        true => Some(Shadow::new(&service, spec.k).map_err(|e| fatal("tracing", &e))?),
        false => None,
    };
    let service_start = service_metrics.as_ref().map(|m| m.snapshot());
    let (mut commit_ms, mut serve_us, mut recover_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut churn_time, mut moves) = (Duration::ZERO, 0u64);
    let started = clock.elapsed();
    let recovery_every = measure_end.saturating_sub(started) / spec.recoveries.max(1) as u32;
    let mut epoch = 0u64;
    let mut round = 0;
    let mut round_took = Duration::ZERO;
    let mut since_checkpoint = 0;
    while round < spec.service_rounds
        || recover_s.len() < spec.recoveries
        || clock.elapsed() + round_took <= measure_end
    {
        let round_clock = Stopwatch::start();
        let recover_now = recover_s.len() < spec.recoveries
            && clock.elapsed() >= started + recovery_every * recover_s.len() as u32;
        for epoch_of_round in 0..=CHECKPOINT_EVERY {
            let this_epoch = epoch;
            epoch += 1;
            let batch = mirror
                .churn_batch(&map, spec.batch, spec.long_moves, seed, this_epoch)
                .map_err(|e| fatal("churn", &e))?;
            let slices = match shadow.is_some() {
                true => Some(service.route(&batch).map_err(|e| fatal("routing a batch", &e))?),
                false => None,
            };
            let wal_before = traced.then(|| probe::files_bytes(&dir, "wal.log"));
            let t = Stopwatch::start();
            let ingested = service.ingest(&batch);
            let ingest_took = t.elapsed();
            let Some(migrations) = ledger.op("ingest", ingested) else { continue };
            if let Some(before) = wal_before {
                layers.wal_bytes += probe::files_bytes(&dir, "wal.log").saturating_sub(before);
            }
            let t = Stopwatch::start();
            let committed = service.commit();
            let commit_took = t.elapsed();
            if ledger.op("commit", committed).is_none() {
                continue;
            }
            since_checkpoint += 1;
            let checkpointed = since_checkpoint == CHECKPOINT_EVERY;
            if checkpointed {
                since_checkpoint = 0;
            }
            let took = ingest_took + commit_took;
            commit_ms.push(ms(took));
            churn_time += took;
            moves += batch.len() as u64;
            if traced {
                layers.ingest_ms.push(ms(ingest_took));
                layers.migrations.push(migrations as f64);
                layers.moves += batch.len() as u64;
                if checkpointed {
                    layers.checkpoint_commit_ms.push(ms(commit_took));
                }
            }
            if let (Some(shadow), Some(slices)) = (shadow.as_mut(), slices) {
                if let Err(e) = shadow.commit(&slices, spec.refresh_workers, &mut layers) {
                    return Err(fatal("tracing", &e));
                }
            }
            let requests = mirror.requests(spec.requests, seed, this_epoch);
            for (chunk_index, chunk) in requests.chunks(spec.request_batch).enumerate() {
                let mut served = Vec::with_capacity(chunk.len());
                let t = Stopwatch::start();
                for request in chunk {
                    served.push(service.serve(request.user, request.location, &request.params));
                }
                let took = t.elapsed();
                serve_us.push(took.as_secs_f64() * 1e6 / chunk.len() as f64);
                layers.serve_time += took;
                let base = chunk_index * spec.request_batch;
                check_served(&mut ledger, &mut layers, &pois, chunk, served, base);
            }
            if recover_now && epoch_of_round == 0 {
                let before_crash = encode_policy(&service.committed_policy());
                let store = poi_store(map, &pois).map_err(|e| fatal("POI store", &e))?;
                let metrics_before = service_metrics.as_ref().map(|m| m.snapshot());
                drop(service);
                let t = Stopwatch::start();
                let result = deployment.recover(&dir, store, service_metrics.as_ref());
                let took = t.elapsed();
                let (recovered, reports) = ledger
                    .op("recover", result)
                    .ok_or_else(|| Fatal("recovery failed; the run cannot go on".into()))?;
                recover_s.push(took.as_secs_f64());
                let after = encode_policy(&recovered.committed_policy());
                ledger.check(
                    "recovered policy",
                    checks::recovered_bytes_match(&before_crash, &after),
                );
                layers.replayed += reports.iter().map(|r| r.replayed).sum::<usize>();
                layers.policy_bytes = after.len();
                if let (Some(before), Some(m)) = (metrics_before, service_metrics.as_ref()) {
                    layers.recoveries.push((before, m.snapshot()));
                }
                service = recovered;
                since_checkpoint = 0;
            }
            if checkpointed {
                break;
            }
        }
        round += 1;
        round_took = round_clock.elapsed();
    }
    if let (Some(start), Some(m)) = (service_start, service_metrics.as_ref()) {
        layers.service = Some((start, m.snapshot()));
    }
    drop(shadow);
    phases.push(("service", clock.elapsed().as_secs_f64()));

    for (i, (db, map, committed)) in service.jurisdictions().into_iter().enumerate() {
        ledger.check(
            &format!("jurisdiction {i} policy"),
            checks::policy_is_k_anonymous(db, committed, spec.k),
        );
        ledger.check(
            &format!("jurisdiction {i} commit"),
            checks::committed_is_optimal(db, map, spec.k, committed),
        );
    }
    drop(service);

    let end_to_end = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("anonymize_s", "s", median(&anonymize_s)),
        metric("parallel_anonymize_s", "s", median(&parallel_s)),
        metric("commit_ms", "ms", median(&commit_ms)),
        metric(
            "updates_per_s",
            "1/s",
            moves as f64 / churn_time.as_secs_f64().max(f64::MIN_POSITIVE),
        ),
        metric("serve_us", "us", median(&serve_us)),
        metric("recover_s", "s", median(&recover_s)),
        metric("disk_mb", "MB", probe::dir_bytes(&dir) as f64 / 1e6),
        metric("peak_rss_mb", "MB", probe::peak_rss_mb()),
    ];
    let per_layer = match traced {
        true => per_layer(&layers, &dir),
        false => Vec::new(),
    };
    let samples = vec![
        ("setup_s", setup_s),
        ("anonymize_s", anonymize_s),
        ("parallel_anonymize_s", parallel_s),
        ("traced anonymize_s", traced_anonymize_s),
        ("traced parallel_anonymize_s", traced_parallel_s),
        ("commit_ms", commit_ms),
        ("serve_us", serve_us),
        ("recover_s", recover_s),
    ];
    let samples = samples.into_iter().filter(|(_, v)| !v.is_empty()).collect();
    phases.push(("checks", clock.elapsed().as_secs_f64()));
    Ok(Outcome { end_to_end, per_layer, samples, ledger, phases })
}

fn check_served(
    ledger: &mut Ledger,
    layers: &mut Layers,
    pois: &[Poi],
    chunk: &[Request],
    served: Vec<Result<Served, RuntimeError>>,
    base: usize,
) {
    for (i, (request, served)) in chunk.iter().zip(served).enumerate() {
        let Some(served) = ledger.op("serve", served) else { continue };
        layers.served += 1;
        layers.candidates += served.answer.candidates_fetched as u64;
        if served.rung != Rung::Fresh {
            ledger.check(
                "serve",
                Err(format!("request answered on the {} rung", served.rung.name())),
            );
        }
        if !served.region.contains(&request.location) {
            ledger.check("serve", Err("served cloak does not contain the sender".into()));
        }
        if (base + i).is_multiple_of(ANSWER_SAMPLE_EVERY) {
            let nearest = served.answer.nearest;
            ledger.check(
                "answer",
                checks::answer_is_nearest(pois, request.location, request.category(), nearest),
            );
        }
    }
}

fn per_layer(layers: &Layers, dir: &Path) -> Vec<Metric> {
    let none = MetricsSnapshot::default();
    let bulk = layers.bulk.as_ref().unwrap_or(&none);
    let engine = layers.engine.as_ref().unwrap_or(&none);
    let builds = bulk.stage(Stage::Dp).calls.max(1) as f64;
    let runs = layers.busy_ratio.len().max(1) as f64;
    // The service phase's growth, less that of the recoveries within it.
    let service = layers.service.as_ref();
    let svc_count = |c| {
        let recovering: u64 = layers.recoveries.iter().map(|w| grew(w, c)).sum();
        service.map_or(0, |w| grew(w, c)).saturating_sub(recovering)
    };
    let svc_stage = |s| {
        let recovering: Duration = layers.recoveries.iter().map(|w| grew_stage(w, s)).sum();
        service.map_or(Duration::ZERO, |w| grew_stage(w, s)).saturating_sub(recovering)
    };
    let replay: Duration = layers.recoveries.iter().map(|w| grew_stage(w, Stage::Replay)).sum();
    let epochs = layers.ingest_ms.len().max(1) as f64;
    let served = layers.served.max(1) as f64;
    let recoveries = layers.recoveries.len().max(1) as f64;
    let checkpoints = svc_count(Counter::CheckpointsWritten).max(1) as f64;
    let cache = (svc_count(Counter::CacheHits), svc_count(Counter::CacheMisses));
    let serve_stage = svc_stage(Stage::Serve);
    let cloak = layers.serve_time.saturating_sub(serve_stage);
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    vec![
        metric("tree.build_ms", "ms", ms(bulk.stage(Stage::TreeBuild).total()) / builds),
        metric("tree.nodes", "count", layers.tree_nodes as f64),
        metric("core.dp_ms", "ms", ms(bulk.stage(Stage::Dp).total()) / builds),
        metric("core.extract_ms", "ms", ms(bulk.stage(Stage::Extract).total()) / builds),
        metric("core.page_faults", "count", mean(&layers.faults_per_build)),
        metric("core.stage_ms", "ms", median(&layers.stage_ms)),
        metric("core.refresh_ms", "ms", median(&layers.refresh_ms)),
        metric("core.rows_recomputed", "count", mean(&layers.rows_recomputed)),
        metric(
            "core.subtree_cache_hit_ratio",
            "ratio",
            ratio(layers.cache_hits, layers.cache_misses),
        ),
        metric("core.policy_ms", "ms", median(&layers.policy_ms)),
        metric("parallel.partition_ms", "ms", ms(engine.stage(Stage::Partition).total()) / runs),
        metric("parallel.merge_ms", "ms", ms(engine.stage(Stage::Merge).total()) / runs),
        metric("parallel.queue_wait_ms", "ms", ms(engine.stage(Stage::QueueWait).total()) / runs),
        metric("parallel.busy_ratio", "ratio", mean(&layers.busy_ratio)),
        metric(
            "parallel.refresh_tasks",
            "count",
            svc_count(Counter::DirtySubtrees) as f64 / epochs,
        ),
        metric("runtime.ingest_ms", "ms", median(&layers.ingest_ms)),
        metric("runtime.wal_append_ms", "ms", ms(svc_stage(Stage::WalAppend)) / epochs),
        metric("runtime.migrations", "count", mean(&layers.migrations)),
        metric("runtime.checkpoint_ms", "ms", ms(svc_stage(Stage::Checkpoint)) / checkpoints),
        metric("runtime.checkpoint_commit_ms", "ms", median(&layers.checkpoint_commit_ms)),
        metric(
            "runtime.wal_bytes_per_update",
            "B",
            layers.wal_bytes as f64 / layers.moves.max(1) as f64,
        ),
        metric("runtime.checkpoint_mb", "MB", probe::newest_checkpoint_bytes(dir) as f64 / 1e6),
        metric("runtime.replay_ms", "ms", ms(replay) / recoveries),
        metric("runtime.replayed_records", "count", layers.replayed as f64 / recoveries),
        metric("runtime.cloak_us", "us", cloak.as_secs_f64() * 1e6 / served),
        metric("query.nearest_us", "us", serve_stage.as_secs_f64() * 1e6 / served),
        metric("query.cache_hit_ratio", "ratio", ratio(cache.0, cache.1)),
        metric("query.candidates_per_request", "count", layers.candidates as f64 / served),
        metric("model.policy_bytes", "B", layers.policy_bytes as f64),
        metric("trace.overhead_pct", "%", layers.trace_overhead_pct),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(name: &str, traced: bool) -> Outcome {
        let spec = Spec::small(name).unwrap();
        let work = std::env::temp_dir()
            .join(format!("perfbench-test-{name}-{traced}-{}", std::process::id()));
        let outcome = run(&spec, 11, 0.5, traced, &work).unwrap();
        let _ = std::fs::remove_dir_all(&work);
        assert!(outcome.ledger.check_failures.is_empty(), "{:?}", outcome.ledger.check_failures);
        assert_eq!(outcome.ledger.failed(), 0);
        assert!(outcome.ledger.attempted() > 0);
        for m in &outcome.end_to_end {
            assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
        }
        outcome
    }

    #[test]
    fn small_bulk_bay_runs_clean() {
        small_run("bulk_bay", false);
    }

    #[test]
    fn small_service_churn_runs_clean() {
        small_run("service_churn", false);
    }

    #[test]
    fn small_service_read_runs_clean() {
        small_run("service_read", false);
    }

    #[test]
    fn traced_small_run_reports_every_layer() {
        let outcome = small_run("service_churn", true);
        assert_eq!(outcome.per_layer.len(), 30);
        let get = |n: &str| outcome.per_layer.iter().find(|m| m.name == n).unwrap().value;
        assert!(get("core.rows_recomputed") > 0.0);
        assert!(get("runtime.replayed_records") > 0.0);
        assert!(get("runtime.migrations") > 0.0);
    }
}
