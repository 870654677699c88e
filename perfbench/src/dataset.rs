//! Inputs and the collective write / serial restart every workload uses.

use crate::util::SetPrint;
use spio_comm::{run_threaded_collect, Comm, TracedComm};
use spio_core::{DatasetReader, SpatialWriter, Storage, WriteStats, WriterConfig};
use spio_trace::Trace;
use spio_types::{Aabb3, DomainDecomposition, Particle, PartitionFactor, PARTICLE_BYTES};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The particles every writer rank contributes, generated from the seed.
pub struct Input {
    pub decomp: DomainDecomposition,
    pub factor: PartitionFactor,
    pub per_rank: Arc<Vec<Vec<Particle>>>,
    pub print: SetPrint,
}

impl Input {
    pub fn generate(ranks: usize, per_rank: usize, factor: PartitionFactor, seed: u64) -> Input {
        let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), ranks);
        let parts: Vec<Vec<Particle>> = (0..ranks)
            .map(|r| spio_workloads::uniform_patch_particles(&decomp, r, per_rank, seed))
            .collect();
        let print = SetPrint::of(parts.iter().flatten());
        Input {
            decomp,
            factor,
            per_rank: Arc::new(parts),
            print,
        }
    }

    pub fn particles(&self) -> u64 {
        self.print.count
    }

    /// Particle payload of one checkpoint in bytes (124 B per particle).
    pub fn payload_bytes(&self) -> u64 {
        self.particles() * PARTICLE_BYTES as u64
    }
}

/// One collective write: the wall time from the call until every rank
/// returned, and each rank's [`WriteStats`].
pub struct Written {
    pub wall: Duration,
    pub ranks: Vec<WriteStats>,
}

impl Written {
    /// Slowest rank per phase (phases are bulk-synchronous).
    pub fn max(&self) -> WriteStats {
        WriteStats::merge_max(&self.ranks)
    }
}

/// Run [`SpatialWriter::write`] on one thread per rank. With an enabled
/// `trace`, each rank's communicator is a [`TracedComm`] and the writer
/// records its phase spans; otherwise neither hook is attached.
pub fn write<S: Storage + Clone + 'static>(
    input: &Input,
    storage: &S,
    trace: &Trace,
) -> Result<Written, String> {
    let writer = SpatialWriter::new(input.decomp.clone(), WriterConfig::new(input.factor))
        .with_trace(trace.clone());
    let (parts, storage, trace) = (Arc::clone(&input.per_rank), storage.clone(), trace.clone());
    let t0 = Instant::now();
    let results = run_threaded_collect(input.decomp.nprocs(), move |comm| {
        let mine = &parts[comm.rank()];
        if trace.is_enabled() {
            writer.write(&TracedComm::new(comm, trace.clone()), mine, &storage)
        } else {
            writer.write(&comm, mine, &storage)
        }
    })
    .map_err(|e| format!("write job failed: {e}"))?;
    let wall = t0.elapsed();
    let ranks = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("write failed: {e}"))?;
    Ok(Written { wall, ranks })
}

/// A serial restart: `DatasetReader::open` + `read_all`.
pub struct Restart {
    pub open: Duration,
    pub wall: Duration,
    pub meta: spio_format::SpatialMetadata,
    pub particles: Vec<Particle>,
}

/// Read the whole dataset back and check it is exactly the generated
/// multiset (count plus an order-independent hash of ids, positions and
/// densities).
pub fn restart<S: Storage>(input: &Input, storage: &S) -> Result<Restart, String> {
    let t0 = Instant::now();
    let reader = DatasetReader::open(storage).map_err(|e| format!("restart open: {e}"))?;
    let open = t0.elapsed();
    let (particles, _) = reader
        .read_all(storage)
        .map_err(|e| format!("restart read: {e}"))?;
    let wall = t0.elapsed();
    let got = SetPrint::of(&particles);
    if got != input.print {
        return Err(format!(
            "restart returned {} particles that differ from the {} written",
            got.count,
            input.particles()
        ));
    }
    Ok(Restart {
        open,
        wall,
        meta: reader.meta,
        particles,
    })
}
