//! The anonymization service under test, driven only through the public
//! `lbs-runtime` and `lbs-query` API: one `ServiceRuntime` with the
//! provider attached, or a `ShardedRuntime` fronting one runtime per
//! jurisdiction with the provider answering the cloaks it emits.

use lbs_geom::{Point, Rect, Region};
use lbs_metrics::Metrics;
use lbs_model::{
    AnonymizedRequest, BulkPolicy, LocationDb, RequestId, RequestParams, UserId, UserUpdate,
};
use lbs_query::{ClientAnswer, CloakedLbs, PoiStore};
use lbs_runtime::{
    RecoveryReport, Rung, RuntimeBuilder, RuntimeConfig, RuntimeError, ServiceRuntime,
    ShardedBuilder, ShardedConfig, ShardedRuntime,
};
use std::path::Path;
use std::sync::Arc;

/// How the service is deployed.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    /// Anonymity level.
    pub k: usize,
    /// The map.
    pub map: Rect,
    /// 1 = a single `ServiceRuntime`; more = a `ShardedRuntime`.
    pub shards: usize,
    /// Worker threads of each commit-time DP refresh.
    pub refresh_workers: usize,
    /// Commits per checkpoint.
    pub checkpoint_every: u64,
    /// Checkpoint generations kept by retention GC.
    pub retain_checkpoints: usize,
}

/// A running service.
// One service lives per process, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Service {
    /// One runtime with the provider attached.
    Single(ServiceRuntime),
    /// A sharded fleet; the provider answers the fleet's cloaks.
    Sharded { fleet: ShardedRuntime, lbs: CloakedLbs, next_request: u64, commits: u64 },
}

/// One served request.
pub struct Served {
    /// The rung that produced the cloak.
    pub rung: Rung,
    /// The cloak sent to the provider.
    pub region: Region,
    /// The provider's answer after client-side filtering.
    pub answer: ClientAnswer,
}

fn lbs(store: PoiStore, metrics: Option<&Arc<Metrics>>) -> CloakedLbs {
    let lbs = CloakedLbs::new(store);
    match metrics {
        Some(m) => lbs.with_metrics(Arc::clone(m)),
        None => lbs,
    }
}

impl Deployment {
    fn single(&self, store: PoiStore, metrics: Option<&Arc<Metrics>>) -> RuntimeBuilder {
        let mut cfg = RuntimeConfig::new(self.k, self.map);
        cfg.checkpoint_every = self.checkpoint_every;
        cfg.refresh_workers = self.refresh_workers;
        cfg.retain_checkpoints = Some(self.retain_checkpoints);
        let builder = RuntimeBuilder::new(cfg).lbs(lbs(store, metrics));
        match metrics {
            Some(m) => builder.metrics(Arc::clone(m)),
            None => builder,
        }
    }

    fn sharded(&self, metrics: Option<&Arc<Metrics>>) -> ShardedBuilder {
        let mut cfg = ShardedConfig::new(self.k, self.map, self.shards);
        cfg.checkpoint_every = self.checkpoint_every;
        cfg.refresh_workers = self.refresh_workers;
        cfg.retain_checkpoints = Some(self.retain_checkpoints);
        let builder = ShardedBuilder::new(cfg);
        match metrics {
            Some(m) => builder.metrics(Arc::clone(m)),
            None => builder,
        }
    }

    /// Creates a fresh service in `dir`: initial build and first
    /// checkpoint.
    pub fn create(
        &self,
        dir: &Path,
        db: &LocationDb,
        store: PoiStore,
        metrics: Option<&Arc<Metrics>>,
    ) -> Result<Service, RuntimeError> {
        if self.shards <= 1 {
            return Ok(Service::Single(self.single(store, metrics).create(dir, db)?));
        }
        let fleet = self.sharded(metrics).create(dir, db)?;
        Ok(Service::Sharded { fleet, lbs: lbs(store, metrics), next_request: 0, commits: 0 })
    }

    /// Recovers the service from `dir` (checkpoint plus WAL replay).
    pub fn recover(
        &self,
        dir: &Path,
        store: PoiStore,
        metrics: Option<&Arc<Metrics>>,
    ) -> Result<(Service, Vec<RecoveryReport>), RuntimeError> {
        if self.shards <= 1 {
            let (rt, report) = self.single(store, metrics).recover(dir)?;
            return Ok((Service::Single(rt), vec![report]));
        }
        let (fleet, reports) = self.sharded(metrics).recover(dir)?;
        let commits = fleet.epoch();
        Ok((
            Service::Sharded { fleet, lbs: lbs(store, metrics), next_request: 0, commits },
            reports,
        ))
    }
}

impl Service {
    /// Durably ingests one batch (no DP work). Returns the cross-shard
    /// migrations the router made.
    pub fn ingest(&mut self, batch: &[UserUpdate]) -> Result<u64, RuntimeError> {
        match self {
            Service::Single(rt) => rt.apply_batch(batch).map(|_| 0),
            Service::Sharded { fleet, .. } => fleet.ingest(batch).map(|r| r.migrations),
        }
    }

    /// Commits every staged update, so the next read is served fresh.
    pub fn commit(&mut self) -> Result<(), RuntimeError> {
        match self {
            Service::Single(rt) => rt.commit().map(|_| ()),
            Service::Sharded { fleet, lbs, commits, .. } => {
                fleet.commit_epoch()?;
                *commits += 1;
                lbs.set_policy_epoch(*commits);
                Ok(())
            }
        }
    }

    /// Serves one request: the service's cloak, then the provider's
    /// cloaked nearest-POI answer filtered with the true location.
    pub fn serve(
        &mut self,
        user: UserId,
        location: Point,
        params: &RequestParams,
    ) -> Result<Served, RuntimeError> {
        match self {
            Service::Single(rt) => {
                let served = rt.serve(user, params.clone(), None)?;
                let answer = served.answer.ok_or(RuntimeError::UnknownUser(user))?;
                Ok(Served { rung: served.rung, region: served.region, answer })
            }
            Service::Sharded { fleet, lbs, next_request, .. } => {
                let (rung, region) = fleet.cloak_for(user, None)?;
                *next_request += 1;
                let ar = AnonymizedRequest::new(RequestId(*next_request), region, params.clone());
                Ok(Served { rung, region, answer: lbs.nearest_for(&ar, location) })
            }
        }
    }

    /// Per jurisdiction: its current database, map and committed policy.
    pub fn jurisdictions(&self) -> Vec<(&LocationDb, Rect, &BulkPolicy)> {
        match self {
            Service::Single(rt) => vec![(rt.db(), rt.map(), rt.committed_policy())],
            Service::Sharded { fleet, .. } => (0..fleet.shard_count())
                .filter_map(|i| fleet.shard(i))
                .map(|rt| (rt.db(), rt.map(), rt.committed_policy()))
                .collect(),
        }
    }

    /// The committed policy over every user.
    pub fn committed_policy(&self) -> BulkPolicy {
        match self {
            Service::Single(rt) => rt.committed_policy().clone(),
            Service::Sharded { fleet, .. } => fleet.merged_policy(),
        }
    }

    /// How `batch` reaches each jurisdiction (router slices; one slice
    /// for a single runtime). Call before [`ingest`](Self::ingest).
    pub fn route(&self, batch: &[UserUpdate]) -> Result<Vec<Vec<UserUpdate>>, RuntimeError> {
        match self {
            Service::Single(_) => Ok(vec![batch.to_vec()]),
            Service::Sharded { fleet, .. } => {
                Ok(fleet.plan().split_updates(fleet.residence(), batch)?.per_shard)
            }
        }
    }
}
