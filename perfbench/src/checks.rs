//! Output checks, each against a computation of the benchmark's own that
//! does not reuse the code path under test.

use lbs_core::Anonymizer;
use lbs_geom::{Area, Point, Rect, Region};
use lbs_model::{BulkPolicy, LocationDb};
use lbs_query::{Poi, PoiId};
use lbs_tree::{TreeConfig, TreeKind};
use std::collections::HashMap;

/// Every user of `db` has a cloak that contains them, the policy names
/// no one else, and every cloak group has at least `k` members.
pub fn policy_is_k_anonymous(db: &LocationDb, policy: &BulkPolicy, k: usize) -> Result<(), String> {
    if policy.len() != db.len() {
        return Err(format!("policy covers {} users, database holds {}", policy.len(), db.len()));
    }
    let mut group_sizes: HashMap<Region, usize> = HashMap::new();
    for (user, location) in db.iter() {
        let Some(cloak) = policy.cloak_of(user) else {
            return Err(format!("user {} has no cloak", user.0));
        };
        if !cloak.contains(&location) {
            return Err(format!("the cloak of user {} does not contain the user", user.0));
        }
        *group_sizes.entry(*cloak).or_default() += 1;
    }
    match group_sizes.values().min() {
        Some(&smallest) if smallest < k => {
            Err(format!("a cloak group has {smallest} members, fewer than k = {k}"))
        }
        _ => Ok(()),
    }
}

/// The sum of the policy's cloak areas, one term per user (Definition 8).
pub fn sum_of_areas(policy: &BulkPolicy) -> Result<Area, String> {
    policy
        .iter()
        .map(|(user, region)| {
            region
                .rect()
                .map(Rect::area)
                .ok_or_else(|| format!("user {} has a non-rectangular cloak", user.0))
        })
        .sum()
}

/// The reported cost equals the sum of the policy's cloak areas.
pub fn cost_matches_areas(reported: Area, policy: &BulkPolicy) -> Result<(), String> {
    let summed = sum_of_areas(policy)?;
    if summed == reported {
        Ok(())
    } else {
        Err(format!("reported cost {reported} differs from the sum of cloak areas {summed}"))
    }
}

/// The single-jurisdiction optimum is at most the partitioned engine's
/// cost, and the engine stays within the paper's 1% of it.
pub fn engine_cost_within_one_percent(single: Area, engine: Area) -> Result<(), String> {
    if engine < single {
        return Err(format!("engine cost {engine} is below the single-path optimum {single}"));
    }
    if (engine - single) * 100 > single {
        return Err(format!("engine cost {engine} exceeds the optimum {single} by more than 1%"));
    }
    Ok(())
}

/// A committed policy costs exactly what a from-scratch optimal build on
/// the same database and map costs.
pub fn committed_is_optimal(
    db: &LocationDb,
    map: Rect,
    k: usize,
    committed: &BulkPolicy,
) -> Result<(), String> {
    let fresh = Anonymizer::build_with_config(db, TreeConfig::lazy(TreeKind::Binary, map, k), k)
        .map_err(|e| format!("from-scratch build failed: {e}"))?;
    let committed_cost = sum_of_areas(committed)?;
    if committed_cost == fresh.cost() {
        Ok(())
    } else {
        Err(format!(
            "committed cost {committed_cost} differs from the from-scratch optimum {}",
            fresh.cost()
        ))
    }
}

/// The served nearest POI is as close to the sender as the nearest POI
/// of the category found by a linear scan (ties pass).
pub fn answer_is_nearest(
    pois: &[Poi],
    location: Point,
    category: &str,
    served: Option<PoiId>,
) -> Result<(), String> {
    let best =
        pois.iter().filter(|p| p.category == category).map(|p| location.dist2(&p.location)).min();
    let got = served.and_then(|id| pois.iter().find(|p| p.id == id));
    match (best, got) {
        (None, None) => Ok(()),
        (Some(best), Some(poi))
            if poi.category == category && location.dist2(&poi.location) == best =>
        {
            Ok(())
        }
        _ => Err(format!("served POI {served:?} for category {category} is not the nearest one")),
    }
}

/// The recovered policy's encoded bytes equal the pre-crash bytes.
pub fn recovered_bytes_match(before: &[u8], after: &[u8]) -> Result<(), String> {
    if before == after {
        return Ok(());
    }
    let at =
        before.iter().zip(after).position(|(a, b)| a != b).unwrap_or(before.len().min(after.len()));
    Err(format!(
        "recovered policy differs from the committed one at byte {at} ({} vs {} bytes)",
        after.len(),
        before.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_model::{encode_policy, UserId};

    fn small() -> (LocationDb, Rect, BulkPolicy, Area) {
        let pop = crate::inputs::population(2_000, 600, 7);
        let built = Anonymizer::build(&pop.db, pop.map, 5).expect("small population anonymizes");
        (pop.db, pop.map, built.policy().clone(), built.cost())
    }

    fn groups(policy: &BulkPolicy) -> Vec<(Region, Vec<UserId>)> {
        let mut groups: Vec<_> = policy.groups().into_iter().collect();
        groups.sort_by_key(|(_, members)| (members.len(), members[0]));
        groups
    }

    #[test]
    fn valid_outputs_pass() {
        let (db, map, policy, cost) = small();
        policy_is_k_anonymous(&db, &policy, 5).unwrap();
        cost_matches_areas(cost, &policy).unwrap();
        committed_is_optimal(&db, map, 5, &policy).unwrap();
        engine_cost_within_one_percent(cost, cost + cost / 200).unwrap();
        let bytes = encode_policy(&policy);
        recovered_bytes_match(&bytes, &bytes).unwrap();
    }

    #[test]
    fn group_shrunk_below_k_is_rejected() {
        let (db, map, policy, _) = small();
        let (region, members) = groups(&policy).remove(0);
        let mut broken = BulkPolicy::new(policy.name());
        for (user, cloak) in policy.iter() {
            // Move all but k-1 members of the smallest group to the whole
            // map, which still contains them.
            let shrink = *cloak == region && members[..members.len() - 4].contains(&user);
            broken.assign(user, if shrink { Region::Rect(map) } else { *cloak });
        }
        assert!(policy_is_k_anonymous(&db, &broken, 5).is_err());
    }

    #[test]
    fn cloak_moved_off_its_user_is_rejected() {
        let (db, _, policy, _) = small();
        let all = groups(&policy);
        let (victim_region, victims) = &all[0];
        let other = all.iter().map(|(r, _)| *r).find(|r| r != victim_region).unwrap();
        let victim = victims[0];
        let mut broken = policy.clone();
        broken.assign(victim, other);
        assert!(!other.contains(&db.location(victim).unwrap()));
        assert!(policy_is_k_anonymous(&db, &broken, 5).is_err());
    }

    #[test]
    fn wrong_nearest_poi_is_rejected() {
        let pop = crate::inputs::population(2_000, 600, 7);
        let here = pop.db.iter().next().unwrap().1;
        let mut restaurants: Vec<&Poi> = pop.pois.iter().filter(|p| p.category == "rest").collect();
        restaurants.sort_by_key(|p| here.dist2(&p.location));
        answer_is_nearest(&pop.pois, here, "rest", Some(restaurants[0].id)).unwrap();
        let farther = restaurants
            .iter()
            .find(|p| here.dist2(&p.location) > here.dist2(&restaurants[0].location))
            .unwrap();
        assert!(answer_is_nearest(&pop.pois, here, "rest", Some(farther.id)).is_err());
        assert!(answer_is_nearest(&pop.pois, here, "rest", None).is_err());
    }

    #[test]
    fn recovered_policy_differing_in_one_cloak_is_rejected() {
        let (_, map, policy, _) = small();
        let (user, _) = policy.iter().next().unwrap();
        let mut changed = policy.clone();
        changed.assign(user, Region::Rect(map));
        assert!(recovered_bytes_match(&encode_policy(&policy), &encode_policy(&changed)).is_err());
    }

    #[test]
    fn engine_cost_bounds_are_enforced() {
        assert!(engine_cost_within_one_percent(1000, 999).is_err());
        assert!(engine_cost_within_one_percent(1000, 1011).is_err());
        engine_cost_within_one_percent(1000, 1010).unwrap();
    }
}
