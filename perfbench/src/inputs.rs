//! Seeded inputs: the population, the POI set, churn batches and the
//! request mix. Every generator is a pure function of the run seed (and
//! of the epoch index), so the same seed replays the same run.
//!
//! The models are the repository's own: users from the synthetic Bay
//! Area of `lbs-workload`, moves from `lbs_workload::random_moves`
//! (the paper's Figure 5(b) model), and POIs and requests as the
//! simulator `lbs-sim` makes them (`SimConfig::default()`).

use lbs_geom::{Point, Rect};
use lbs_model::{LocationDb, Move, RequestParams, UserId, UserUpdate};
use lbs_query::{Poi, PoiId, PoiStore};
use lbs_workload::{derive_seed, generate_master, random_moves, sample, BayAreaConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

/// POI categories, as in `lbs-sim`; round-robin over the POIs, uniform
/// over the requests.
pub const CATEGORIES: [&str; 3] = ["rest", "groc", "gas"];
/// POIs on the map, as in `lbs-sim`.
pub const POIS: usize = 2_000;

/// Seed streams (see [`derive_seed`]); one per independent input.
const SAMPLE_STREAM: u64 = 0x5EED_0002;
const POI_STREAM: u64 = 0x5EED_0003;
const SHORT_MOVE_STREAM: u64 = 0x5EED_1000;
const LONG_MOVE_STREAM: u64 = 0x5EED_1800;
const REQUEST_STREAM: u64 = 0x5EED_2000;

/// Longest Figure-5(b) move per epoch, in meters.
pub const SHORT_MOVE_M: f64 = 200.0;

/// The synthetic Bay Area population of one run and its map.
pub struct Population {
    /// The map every tree and cloak lives on.
    pub map: Rect,
    /// The snapshot anonymized and served.
    pub db: LocationDb,
    /// POIs the provider answers nearest-neighbor queries over.
    pub pois: Vec<Poi>,
}

/// Generates the master set (`master_users` users, the paper's 1.75M at
/// full size), samples `users` of them (all when equal), and scatters
/// [`POIS`] POIs uniformly over the map.
///
/// The master set is the same for every seed, as the paper's Bay Area
/// data set is one fixed map; the seed draws the sample, the POIs, the
/// churn and the requests.
pub fn population(master_users: usize, users: usize, seed: u64) -> Population {
    let cfg = BayAreaConfig::scaled_to(master_users);
    let map = cfg.map();
    let master = generate_master(&cfg);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, POI_STREAM));
    let pois = (0..POIS)
        .map(|i| Poi {
            id: PoiId(i as u64),
            location: Point::new(rng.gen_range(map.x0..map.x1), rng.gen_range(map.y0..map.y1)),
            category: CATEGORIES[i % CATEGORIES.len()].to_owned(),
        })
        .collect();
    let db = if users >= master.len() {
        master
    } else {
        sample(&master, users, derive_seed(seed, SAMPLE_STREAM))
    };
    Population { map, db, pois }
}

/// A grid POI store over `map` (64 × 64 cells, as in `lbs-sim`).
pub fn poi_store(map: Rect, pois: &[Poi]) -> Result<PoiStore, String> {
    PoiStore::build(map, (map.width() / 64).max(1), pois.to_vec())
}

/// The benchmark's own copy of every user's location, kept in step with
/// the batches it sends, so moves start from where a user is and answers
/// can be checked against the true location.
pub struct Mirror {
    db: LocationDb,
    users: Vec<UserId>,
}

impl Mirror {
    /// Mirrors `db`.
    pub fn new(db: LocationDb) -> Self {
        let users = db.users().collect();
        Mirror { db, users }
    }

    /// One epoch's churn batch of `size` moves by distinct users. Of
    /// these, `long` are drawn by `random_moves` with the reach of the
    /// repository's sharded pump (`lbs shard`: an eighth of the map
    /// side), which makes them cross jurisdictions now and then; the rest
    /// are Figure-5(b) moves of at most [`SHORT_MOVE_M`] by other users.
    /// Both are clamped to the map, and the long moves come last.
    pub fn churn_batch(
        &mut self,
        map: &Rect,
        size: usize,
        long: usize,
        seed: u64,
        epoch: u64,
    ) -> Result<Vec<UserUpdate>, String> {
        let n = self.db.len().max(1) as f64;
        let long = long.min(size);
        let long_moves = match long {
            0 => Vec::new(),
            _ => random_moves(
                &self.db,
                map,
                long as f64 / n,
                map.width() as f64 / 8.0,
                derive_seed(seed, LONG_MOVE_STREAM + epoch),
            ),
        };
        let long_users: HashSet<UserId> = long_moves.iter().map(|m| m.user).collect();
        let mut moves: Vec<Move> = random_moves(
            &self.db,
            map,
            size as f64 / n,
            SHORT_MOVE_M,
            derive_seed(seed, SHORT_MOVE_STREAM + epoch),
        )
        .into_iter()
        .filter(|m| !long_users.contains(&m.user))
        .take(size - long_moves.len())
        .collect();
        moves.extend(long_moves);
        self.db.apply_moves(&moves).map_err(|e| format!("mirror rejected a move: {e}"))?;
        Ok(moves.into_iter().map(UserUpdate::Move).collect())
    }

    /// One epoch's requests: `count` (user, true location, params)
    /// triples. Senders and categories are uniform, as in `lbs-sim`.
    pub fn requests(&self, count: usize, seed: u64, epoch: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, REQUEST_STREAM + epoch));
        (0..count)
            .filter_map(|_| {
                let user = self.users[rng.gen_range(0..self.users.len())];
                let category = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
                Some(Request {
                    user,
                    location: self.db.location(user)?,
                    params: RequestParams::from_pairs([("poi", category)]),
                })
            })
            .collect()
    }
}

/// One service request as the client sends it, with the sender's true
/// location (which stays on the client side).
pub struct Request {
    /// The sender.
    pub user: UserId,
    /// The sender's true location.
    pub location: Point,
    /// The service parameters (`poi` = category).
    pub params: RequestParams,
}

impl Request {
    /// The requested POI category.
    pub fn category(&self) -> &str {
        self.params.0.iter().find(|(k, _)| k == "poi").map_or("", |(_, v)| v.as_str())
    }
}
