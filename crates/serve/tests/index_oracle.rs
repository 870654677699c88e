//! Property tests for the one read path, over datasets produced by real
//! writes of all three synthetic workloads (uniform, clusters, jet):
//!
//! - the spatial index's selection, and [`DatasetReader::select`], equal
//!   the linear `files_intersecting` / `files_for_range_query` oracles on
//!   randomized box, density and LOD queries;
//! - the serial scan answers every query the same fail-fast and degraded
//!   (on clean storage), and the concurrent engine byte-identically;
//! - the serial LOD answer is each selected file's `LodCursor` prefix,
//!   filtered to the region.

use spio_comm::{run_threaded_collect, Comm};
use spio_core::{
    DatasetReader, LodCursor, MemStorage, Query, ScanPolicy, SpatialWriter, WriterConfig,
};
use spio_format::{SpatialIndex, SpatialMetadata};
use spio_serve::{QueryEngine, ServeConfig};
use spio_types::particle::encode_particles;
use spio_types::{Aabb3, DomainDecomposition, GridDims, Particle, PartitionFactor};
use spio_util::{cases, Gen};
use spio_workloads::{
    cluster_patch_particles, jet_patch_particles, uniform_patch_particles, ClusterSpec, JetSpec,
};

fn write_dataset(
    gen: impl Fn(&DomainDecomposition, usize) -> Vec<Particle> + Clone + Send + Sync + 'static,
) -> MemStorage {
    let storage = MemStorage::new();
    let s = storage.clone();
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 2));
    run_threaded_collect(16, move |comm| {
        let ps = gen(&d, comm.rank());
        SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(2, 2, 1)))
            .write(&comm, &ps, &s)
            .unwrap()
    })
    .unwrap();
    storage
}

fn random_query(g: &mut Gen, domain: &Aabb3) -> Aabb3 {
    let e = domain.extent();
    let mut lo = [0.0f64; 3];
    let mut hi = [0.0f64; 3];
    for a in 0..3 {
        // Anything from a sliver to the whole axis, sometimes poking
        // outside the domain so boundary handling gets exercised too.
        let x0 = g.f64_in(domain.lo[a] - 0.1 * e[a], domain.hi[a]);
        let x1 = g.f64_in(x0, domain.hi[a] + 0.1 * e[a]);
        lo[a] = x0;
        hi[a] = x1;
    }
    Aabb3::new(lo, hi)
}

/// A random query of a random kind: a box, an LOD level from 0 to past the
/// deepest, or a density window inside the dataset's density range.
fn random_any_query(g: &mut Gen, meta: &SpatialMetadata) -> Query {
    let region = random_query(g, &meta.domain);
    match g.index(3) {
        0 => Query::Box(region),
        1 => Query::Lod {
            region,
            level: g.u32_in(0, 12),
        },
        _ => {
            let (dmin, dmax) = meta.attr_ranges.as_ref().map_or((0.0, 1.0), |rs| {
                rs.iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
                        (lo.min(r.density_min), hi.max(r.density_max))
                    })
            });
            let lo = g.f64_in(dmin, dmax);
            let hi = g.f64_in(lo, dmax + 0.1 * (dmax - dmin));
            Query::Density { region, lo, hi }
        }
    }
}

/// The linear selection oracles for `q`.
fn oracle_files(meta: &SpatialMetadata, q: &Query) -> Vec<usize> {
    match q {
        Query::Density { region, lo, hi } => meta.files_for_range_query(region, *lo, *hi),
        _ => meta.files_intersecting(q.region()),
    }
}

fn assert_index_matches_oracle(meta: &SpatialMetadata, workload: &str) {
    let index = SpatialIndex::build(meta);
    assert_eq!(index.len(), meta.entries.len());
    cases(128, |g| {
        let q = random_query(g, &meta.domain);
        let got = index.query(&q);
        let want = meta.files_intersecting(&q);
        assert_eq!(got, want, "{workload}: selection diverged for {q:?}");
    });
    // Degenerate queries: empty box, whole domain, single point.
    let empty = Aabb3::new([0.5; 3], [0.5; 3]);
    assert_eq!(index.query(&empty), meta.files_intersecting(&empty));
    assert_eq!(
        index.query(&meta.domain),
        (0..meta.entries.len()).collect::<Vec<_>>()
    );
}

/// `select` ≡ the oracles, fail-fast scan ≡ degraded scan ≡ engine, and
/// the serial LOD answer ≡ per-file cursor prefixes.
fn assert_one_read_path(storage: &MemStorage, workload: &str) {
    let reader = DatasetReader::open(storage).unwrap();
    let meta = &reader.meta;
    let engine = QueryEngine::open(storage.clone(), ServeConfig::default()).unwrap();
    cases(128, |g| {
        let q = random_any_query(g, meta);
        assert_eq!(
            reader.select(&q),
            oracle_files(meta, &q),
            "{workload}: select diverged for {q:?}"
        );
    });
    // Returns whether the query's answer was non-empty.
    let check = |q: &Query| {
        let strict = reader.query(storage, q, ScanPolicy::FailFast);
        let degraded = reader.query(storage, q, ScanPolicy::Degrade);
        assert!(strict.is_complete() && degraded.is_complete());
        let serial = encode_particles(&strict.particles);
        assert_eq!(
            encode_particles(&degraded.particles),
            serial,
            "{workload}: fail-fast vs degraded for {q:?}"
        );
        let served = engine.execute(q);
        assert!(served.is_complete());
        assert_eq!(
            encode_particles(&served.particles),
            serial,
            "{workload}: engine vs serial for {q:?}"
        );
        if let Query::Lod { region, level } = *q {
            let mut cursors = Vec::new();
            for idx in meta.files_intersecting(&region) {
                let (prefix, _) = LodCursor::new(meta, &[idx], 1)
                    .read_through_level(storage, level)
                    .unwrap();
                cursors.extend(prefix.into_iter().filter(|p| region.contains(p.position)));
            }
            assert_eq!(
                encode_particles(&cursors),
                serial,
                "{workload}: serial LOD vs cursor prefixes for {q:?}"
            );
        }
        !strict.particles.is_empty()
    };
    cases(24, |g| {
        check(&random_any_query(g, meta));
    });
    // Random boxes can miss a concentrated workload entirely; the whole
    // domain cannot, so every kind is also compared on a non-empty answer.
    let domain = meta.domain;
    for q in [
        Query::Box(domain),
        Query::Lod {
            region: domain,
            level: 1,
        },
        Query::Density {
            region: domain,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        },
    ] {
        assert!(check(&q), "{workload}: empty answer to {q:?}");
    }
}

fn check_workload(storage: &MemStorage, workload: &str) {
    assert_index_matches_oracle(&DatasetReader::open(storage).unwrap().meta, workload);
    assert_one_read_path(storage, workload);
}

#[test]
fn index_matches_linear_oracle_on_uniform_writes() {
    let storage = write_dataset(|d, rank| uniform_patch_particles(d, rank, 300, 7));
    check_workload(&storage, "uniform");
}

#[test]
fn index_matches_linear_oracle_on_cluster_writes() {
    let spec = ClusterSpec {
        total_particles: 6_000,
        ..ClusterSpec::default()
    };
    let storage = write_dataset(move |d, rank| cluster_patch_particles(d, rank, &spec, 11));
    check_workload(&storage, "clusters");
}

#[test]
fn index_matches_linear_oracle_on_jet_writes() {
    let spec = JetSpec {
        total_particles: 6_000,
        ..JetSpec::default()
    };
    let storage = write_dataset(move |d, rank| jet_patch_particles(d, rank, &spec, 13));
    check_workload(&storage, "jet");
}
