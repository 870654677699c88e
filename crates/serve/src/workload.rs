//! Seeded multi-client query workloads, and their concurrent replay, for
//! the serve bench, the read benchmark and tests.
//!
//! Real read traffic against a spatial store is skewed: most clients probe
//! a handful of hot regions (a feature a scientist is inspecting) while a
//! tail of queries sweeps the rest of the domain. `client_queries` models
//! that mix deterministically: the same `(spec, client)` pair always
//! produces the same query list, so bench runs are reproducible and the
//! cold/warm comparison in `spio bench --read` measures caching, not
//! workload drift.

use crate::engine::{Query, QueryEngine};
use spio_core::Storage;
use spio_format::SpatialMetadata;
use spio_types::{Aabb3, SpioError};
use spio_util::Rng;

/// Parameters of a synthetic multi-client query mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Base seed; each client derives an independent stream from it.
    pub seed: u64,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Fraction of queries aimed at the shared hot-spot box.
    pub hot_fraction: f64,
    /// Fraction of queries that are LOD-prefix reads.
    pub lod_fraction: f64,
    /// Fraction of queries that add a density-range filter.
    pub density_fraction: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 42,
            queries_per_client: 24,
            hot_fraction: 0.5,
            lod_fraction: 0.2,
            density_fraction: 0.2,
        }
    }
}

/// The shared hot-spot region: a box spanning the central ~30% of each
/// axis. All clients hit the same box, which is what makes the warm-cache
/// phase of the bench mostly hits.
pub fn hot_spot(domain: &Aabb3) -> Aabb3 {
    let c = domain.center();
    let e = domain.extent();
    let lo = [c[0] - 0.15 * e[0], c[1] - 0.15 * e[1], c[2] - 0.15 * e[2]];
    let hi = [c[0] + 0.15 * e[0], c[1] + 0.15 * e[1], c[2] + 0.15 * e[2]];
    Aabb3::new(lo, hi)
}

fn random_box(rng: &mut Rng, domain: &Aabb3) -> Aabb3 {
    let e = domain.extent();
    let mut lo = [0.0f64; 3];
    let mut hi = [0.0f64; 3];
    for a in 0..3 {
        // Side between 5% and 40% of the domain extent on each axis.
        let side = rng.f64_in(0.05, 0.40) * e[a];
        let start = rng.f64_in(domain.lo[a], domain.hi[a] - side);
        lo[a] = start;
        hi[a] = start + side;
    }
    Aabb3::new(lo, hi)
}

/// Deterministic query list for one client. Clients get decorrelated
/// streams (seed mixed with the client id), but the *hot-spot box itself*
/// is shared across clients so their traffic overlaps.
pub fn client_queries(meta: &SpatialMetadata, spec: &WorkloadSpec, client: usize) -> Vec<Query> {
    let mut rng =
        Rng::seed_from_u64(spec.seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let hot = hot_spot(&meta.domain);
    let num_levels = meta.lod.num_levels(1, meta.total_particles).max(1);
    (0..spec.queries_per_client)
        .map(|_| {
            let region = if rng.f64() < spec.hot_fraction {
                hot
            } else {
                random_box(&mut rng, &meta.domain)
            };
            let kind = rng.f64();
            if kind < spec.lod_fraction {
                Query::Lod {
                    region,
                    level: rng.usize_in(0, num_levels as usize - 1) as u32,
                }
            } else if kind < spec.lod_fraction + spec.density_fraction {
                let lo = rng.f64_in(0.8, 1.5);
                let hi = lo + rng.f64_in(0.05, 0.5);
                Query::Density { region, lo, hi }
            } else {
                Query::Box(region)
            }
        })
        .collect()
}

/// Replay `clients` concurrent clients against `engine`: client `c` runs
/// `client_queries(meta, spec, c)` through [`QueryEngine::execute_as`].
/// Returns each client's `(complete, partial)` query counts; a client
/// thread that panics is a typed error, not a propagated panic.
pub fn replay<S: Storage + 'static>(
    engine: &QueryEngine<S>,
    clients: usize,
    spec: &WorkloadSpec,
) -> Result<Vec<(usize, usize)>, SpioError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let (mut ok, mut partial) = (0, 0);
                    for q in client_queries(engine.meta(), spec, client) {
                        if engine.execute_as(client, &q).is_complete() {
                            ok += 1;
                        } else {
                            partial += 1;
                        }
                    }
                    (ok, partial)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(client, h)| {
                h.join()
                    .map_err(|_| SpioError::Comm(format!("replay client {client} thread panicked")))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_format::meta::FileEntry;
    use spio_format::LodParams;
    use spio_types::{GridDims, PartitionFactor};

    fn meta() -> SpatialMetadata {
        SpatialMetadata {
            domain: Aabb3::new([0.0; 3], [1.0; 3]),
            writer_grid: GridDims::new(4, 4, 1),
            partition_factor: PartitionFactor::new(1, 1, 1),
            lod: LodParams::default(),
            total_particles: 4096,
            entries: vec![FileEntry {
                agg_rank: 0,
                particle_count: 4096,
                bounds: Aabb3::new([0.0; 3], [1.0; 3]),
            }],
            attr_ranges: None,
        }
    }

    #[test]
    fn same_client_same_queries() {
        let m = meta();
        let spec = WorkloadSpec::default();
        let a = client_queries(&m, &spec, 3);
        let b = client_queries(&m, &spec, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), spec.queries_per_client);
    }

    #[test]
    fn different_clients_differ_but_share_the_hot_spot() {
        let m = meta();
        let spec = WorkloadSpec {
            queries_per_client: 64,
            ..WorkloadSpec::default()
        };
        let a = client_queries(&m, &spec, 0);
        let b = client_queries(&m, &spec, 1);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        let hot = hot_spot(&m.domain);
        let hot_hits = |qs: &[Query]| {
            qs.iter()
                .filter(|q| {
                    let r = match q {
                        Query::Box(r) => r,
                        Query::Lod { region, .. } => region,
                        Query::Density { region, .. } => region,
                    };
                    r.lo == hot.lo && r.hi == hot.hi
                })
                .count()
        };
        // Both clients aim a solid share of traffic at the same box.
        assert!(hot_hits(&a) > 16, "client 0 hot hits: {}", hot_hits(&a));
        assert!(hot_hits(&b) > 16, "client 1 hot hits: {}", hot_hits(&b));
    }

    #[test]
    fn mix_includes_all_query_kinds() {
        let m = meta();
        let spec = WorkloadSpec {
            queries_per_client: 200,
            ..WorkloadSpec::default()
        };
        let qs = client_queries(&m, &spec, 7);
        let boxes = qs.iter().filter(|q| matches!(q, Query::Box(_))).count();
        let lods = qs.iter().filter(|q| matches!(q, Query::Lod { .. })).count();
        let dens = qs
            .iter()
            .filter(|q| matches!(q, Query::Density { .. }))
            .count();
        assert!(boxes > 0 && lods > 0 && dens > 0, "{boxes}/{lods}/{dens}");
        for q in &qs {
            if let Query::Density { lo, hi, .. } = q {
                assert!(lo < hi);
            }
            if let Query::Lod { level, .. } = q {
                assert!((*level as usize) < m.lod.num_levels(1, m.total_particles) as usize);
            }
        }
    }
}
