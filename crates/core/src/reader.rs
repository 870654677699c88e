//! Scalable parallel reads for analysis and visualization (§4).
//!
//! Three mechanisms make reads fast: (1) aggregation produces few, large
//! files, so readers open fewer files than file-per-process layouts; (2)
//! files are spatially coherent, so a box query touches few of them; (3)
//! the spatial metadata file tells every reader exactly which files its
//! query needs — without it, a reader must scan *all* files and discard
//! most particles. LOD reads exploit the shuffled layout: a file prefix is
//! a uniform subsample, and appending the next level is a further
//! sequential read.
//!
//! Every query read is [`DatasetReader::select`] → [`DatasetReader::fetch`]
//! → [`Query::retain`]. [`DatasetReader::scan`] runs the steps serially;
//! the `spio-serve` engine runs the same steps on a pool behind a cache.

use crate::stats::ReadStats;
use crate::storage::Storage;
use spio_comm::Comm;
use spio_format::data_file::{
    decode_data_file, footer_range, payload_range, DataFileHeader, HEADER_BYTES,
};
use spio_format::{FileEntry, LodParams, SpatialIndex, SpatialMetadata, META_FILE_NAME};
use spio_trace::Trace;
use spio_types::{Aabb3, DomainDecomposition, GridDims, Particle, Rank, SpioError, PARTICLE_BYTES};
use spio_util::Crc32;
use std::time::Instant;

/// Phase-span names the read path records into an attached [`Trace`].
pub mod phases {
    pub const META: &str = "read:meta";
    pub const BOX: &str = "read:box";
    pub const SCAN: &str = "read:scan";
    pub const RANGE: &str = "read:range";
    pub const LOD: &str = "read:lod";
    pub const PARTIAL: &str = "read:partial";
}

/// One query a reader can answer.
#[derive(Debug, Clone)]
pub enum Query {
    /// All particles inside the box (the paper's §4 read).
    Box(Aabb3),
    /// A uniform subsample of the region: LOD prefixes through `level` of
    /// the intersecting files, filtered to the region.
    Lod { region: Aabb3, level: u32 },
    /// Particles inside the region with density in `[lo, hi]` (§3.5
    /// attribute-range extension).
    Density { region: Aabb3, lo: f64, hi: f64 },
}

impl Query {
    /// The spatial region the query touches.
    pub fn region(&self) -> &Aabb3 {
        match self {
            Query::Box(r) | Query::Lod { region: r, .. } | Query::Density { region: r, .. } => r,
        }
    }

    /// Short kind label (used as the storage-op "file" in traces).
    pub fn label(&self) -> &'static str {
        match self {
            Query::Box(_) => "box",
            Query::Lod { .. } => "lod",
            Query::Density { .. } => "density",
        }
    }

    /// The read-phase span ([`phases`]) this query is recorded under.
    pub fn phase(&self) -> &'static str {
        match self {
            Query::Box(_) => phases::BOX,
            Query::Lod { .. } => phases::LOD,
            Query::Density { .. } => phases::RANGE,
        }
    }

    /// The LOD level each file is read through: `None` means whole files.
    pub fn lod_level(&self) -> Option<u32> {
        match self {
            Query::Lod { level, .. } => Some(*level),
            _ => None,
        }
    }

    /// Append the particles of one fetched file (`block`, whose metadata
    /// box is `file_bounds`) that answer the query, returning how many were
    /// kept. This is the read path's only box and density filter.
    pub fn retain(
        &self,
        file_bounds: &Aabb3,
        block: &[Particle],
        out: &mut Vec<Particle>,
    ) -> usize {
        match self {
            Query::Box(region) | Query::Lod { region, .. } => {
                append_box_hits(region, file_bounds, block, out)
            }
            Query::Density { region, lo, hi } => {
                let hit =
                    |p: &&Particle| region.contains(p.position) && (*lo..=*hi).contains(&p.density);
                let before = out.len();
                out.extend(block.iter().filter(hit).copied());
                out.len() - before
            }
        }
    }
}

/// What a scan does when a selected file cannot be fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPolicy {
    /// Stop at the first failed file (the strict reads).
    FailFast,
    /// Record the failure and go on with the next file.
    Degrade,
}

/// Stand-in for file bounds a scan must not trust: no query contains it,
/// so every particle goes through the per-particle test.
const UNKNOWN_BOUNDS: Aabb3 = Aabb3 {
    lo: [f64::NEG_INFINITY; 3],
    hi: [f64::INFINITY; 3],
};

/// A handle to a written dataset: the parsed spatial metadata and the
/// spatial index over its file boxes.
#[derive(Debug, Clone)]
pub struct DatasetReader {
    pub meta: SpatialMetadata,
    index: SpatialIndex,
    trace: Trace,
    rank: Rank,
}

impl DatasetReader {
    /// Open a dataset by reading and parsing its spatial metadata file
    /// ("a lightweight I/O task", §4) and indexing its file boxes.
    pub fn open<S: Storage>(storage: &S) -> Result<Self, SpioError> {
        let bytes = storage.read_file(META_FILE_NAME)?;
        let meta = SpatialMetadata::decode(&bytes)?;
        Ok(DatasetReader {
            index: SpatialIndex::build(&meta),
            meta,
            trace: Trace::off(),
            rank: 0,
        })
    }

    /// Like [`DatasetReader::open`], but records read-phase spans
    /// ([`phases`]) into `trace` attributed to `rank` — including a
    /// `read:meta` span for the metadata fetch itself.
    pub fn open_traced<S: Storage>(
        storage: &S,
        trace: Trace,
        rank: Rank,
    ) -> Result<Self, SpioError> {
        let t0 = Instant::now();
        let reader = Self::open(storage)?;
        trace.phase(rank, phases::META, t0.elapsed());
        Ok(DatasetReader {
            trace,
            rank,
            ..reader
        })
    }

    /// The files `query` must read, ascending: the spatial index's hits,
    /// and for density queries only the files whose §3.5 attribute range
    /// overlaps `[lo, hi]`. Files that cannot hold an answer are never
    /// opened.
    pub fn select(&self, query: &Query) -> Vec<usize> {
        let mut files = self.index.query(query.region());
        if let (Query::Density { lo, hi, .. }, Some(ranges)) = (query, &self.meta.attr_ranges) {
            files.retain(|&i| ranges[i].density_overlaps(*lo, *hi));
        }
        files
    }

    /// `level` clamped to the dataset's deepest LOD level. Every level past
    /// the end reads the same (whole) prefix; clamping gives that prefix
    /// one name.
    pub fn clamp_level(&self, level: u32) -> u32 {
        let levels = self.meta.lod.num_levels(1, self.meta.total_particles);
        level.min(levels.saturating_sub(1))
    }

    /// Read and verify file `idx`: the whole file when `lod_level` is
    /// `None` (one `read_file`, checked by the decoder), else its prefix
    /// through that level for a single reader.
    pub fn fetch<S: Storage>(
        &self,
        storage: &S,
        idx: usize,
        lod_level: Option<u32>,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let meta = &self.meta;
        if let Some(level) = lod_level {
            let global = meta.lod.prefix_len(1, level, meta.total_particles);
            return self.fetch_prefix(storage, idx, global);
        }
        let bytes = storage.read_file(&meta.entries[idx].file_name())?;
        let (_, particles) = decode_data_file(&bytes)?;
        let stats = ReadStats {
            files_opened: 1,
            bytes_read: bytes.len() as u64,
            ..ReadStats::default()
        };
        Ok((particles, stats))
    }

    /// File `idx`'s proportional share of a dataset-wide prefix of
    /// `global_prefix` particles: header, checksum footer and one ranged
    /// payload read, checked chunk by chunk.
    pub fn fetch_prefix<S: Storage>(
        &self,
        storage: &S,
        idx: usize,
        global_prefix: u64,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let (entry, total) = (&self.meta.entries[idx], self.meta.total_particles);
        let target = LodParams::file_prefix(entry.particle_count, total, global_prefix);
        let mut stats = ReadStats::default();
        let particles = PrefixReader::new(entry).extend_to(storage, target, &mut stats)?;
        Ok((particles, stats))
    }

    /// The serial read: fetch each of `files` in order and keep what
    /// `query` retains. [`ScanPolicy::FailFast`] stops at the first failed
    /// file; [`ScanPolicy::Degrade`] records it and reads on.
    pub fn scan<S: Storage>(
        &self,
        storage: &S,
        files: &[usize],
        query: &Query,
        policy: ScanPolicy,
    ) -> PartialRead {
        self.scan_files(storage, files, query, policy, true)
    }

    /// [`DatasetReader::scan`] over [`DatasetReader::select`]'s files.
    pub fn query<S: Storage>(&self, storage: &S, query: &Query, policy: ScanPolicy) -> PartialRead {
        self.scan(storage, &self.select(query), query, policy)
    }

    fn scan_files<S: Storage>(
        &self,
        storage: &S,
        files: &[usize],
        query: &Query,
        policy: ScanPolicy,
        trust_bounds: bool,
    ) -> PartialRead {
        let t0 = Instant::now();
        let mut read = PartialRead::default();
        for &idx in files {
            let entry = &self.meta.entries[idx];
            let mut outcome = FileOutcome {
                file: entry.file_name(),
                ..FileOutcome::default()
            };
            match self.fetch(storage, idx, query.lod_level()) {
                Ok((block, fetched)) => {
                    let bounds = if trust_bounds {
                        &entry.bounds
                    } else {
                        &UNKNOWN_BOUNDS
                    };
                    let kept = query.retain(bounds, &block, &mut read.particles);
                    read.stats.files_opened += fetched.files_opened;
                    read.stats.bytes_read += fetched.bytes_read;
                    // Discards come from what was decoded, never from the
                    // metadata's count, which may be stale or tampered.
                    read.stats.particles_discarded += (block.len() - kept) as u64;
                    outcome.particles = kept as u64;
                }
                Err(error) if policy == ScanPolicy::FailFast => {
                    outcome.error = Some(error);
                    read.outcomes.push(outcome);
                    return read;
                }
                Err(error) => {
                    // Degraded-file events let `spio report` count how many
                    // holes a partial query tolerated.
                    self.trace
                        .fault(self.rank, "partial_read", &outcome.file, false);
                    outcome.error = Some(error);
                }
            }
            read.outcomes.push(outcome);
        }
        read.stats.particles_read = read.particles.len() as u64;
        read.stats.time = t0.elapsed();
        let phase = match (trust_bounds, policy) {
            (false, _) => phases::SCAN,
            (true, ScanPolicy::Degrade) => phases::PARTIAL,
            (true, ScanPolicy::FailFast) => query.phase(),
        };
        self.trace.phase(self.rank, phase, read.stats.time);
        read
    }

    /// Box query using spatial metadata: open only the files whose bounds
    /// intersect `query`, filter particles to the query box. Files fully
    /// contained in the query skip the per-particle filter.
    pub fn read_box<S: Storage>(
        &self,
        storage: &S,
        query: &Aabb3,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        self.query(storage, &Query::Box(*query), ScanPolicy::FailFast)
            .into_result()
    }

    /// The spatially unaware baseline read (Fig. 7's "without spatial
    /// metadata" case): scan *every* data file, keeping only particles in
    /// the query box. The file names still come from the metadata (we need
    /// to enumerate them somehow) but the per-file bounds are deliberately
    /// ignored.
    pub fn read_box_without_metadata<S: Storage>(
        &self,
        storage: &S,
        query: &Aabb3,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let all: Vec<usize> = (0..self.meta.entries.len()).collect();
        let q = Query::Box(*query);
        self.scan_files(storage, &all, &q, ScanPolicy::FailFast, false)
            .into_result()
    }

    /// Attribute range-query (§3.5 extension): return particles inside
    /// `query` whose density lies in `[density_lo, density_hi]`. Files are
    /// pruned by both the spatial metadata and the per-file attribute
    /// ranges, so files that cannot contain matching particles are never
    /// opened.
    pub fn read_box_density<S: Storage>(
        &self,
        storage: &S,
        query: &Aabb3,
        density_lo: f64,
        density_hi: f64,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let query = Query::Density {
            region: *query,
            lo: density_lo,
            hi: density_hi,
        };
        self.query(storage, &query, ScanPolicy::FailFast)
            .into_result()
    }

    /// Read the entire dataset.
    pub fn read_all<S: Storage>(
        &self,
        storage: &S,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        self.read_box(storage, &self.meta.domain.clone())
    }

    /// Box query with graceful degradation: like [`DatasetReader::read_box`]
    /// but one unreadable or corrupt file does not fail the whole query.
    /// Every intersecting file gets a [`FileOutcome`]; particles from the
    /// files that *did* read land in [`PartialRead::particles`]. A
    /// visualization client renders what arrived and reports the holes.
    pub fn read_box_partial<S: Storage>(&self, storage: &S, query: &Aabb3) -> PartialRead {
        self.query(storage, &Query::Box(*query), ScanPolicy::Degrade)
    }
}

/// Per-file result of a [`DatasetReader::scan`].
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Data-file name.
    pub file: String,
    /// Particles this file contributed to the result.
    pub particles: u64,
    /// Why the file contributed nothing (`None` = read fine).
    pub error: Option<SpioError>,
}

impl FileOutcome {
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Result of a scan: whatever could be read, plus what couldn't and why.
#[derive(Debug, Default)]
pub struct PartialRead {
    /// Particles from every file that read and decoded cleanly.
    pub particles: Vec<Particle>,
    /// One entry per file the scan reached, in scan order. A fail-fast
    /// scan ends at its first failure.
    pub outcomes: Vec<FileOutcome>,
    /// I/O stats over the successful reads.
    pub stats: ReadStats,
}

impl PartialRead {
    /// Did every touched file read cleanly? If so the result is identical
    /// to [`DatasetReader::read_box`].
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(FileOutcome::is_ok)
    }

    /// The outcomes that failed.
    pub fn failures(&self) -> Vec<&FileOutcome> {
        self.outcomes.iter().filter(|o| !o.is_ok()).collect()
    }

    /// The strict reads' answer: the particles and stats, or the first
    /// failed file's error.
    pub fn into_result(self) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        match self.outcomes.into_iter().find_map(|o| o.error) {
            Some(error) => Err(error),
            None => Ok((self.particles, self.stats)),
        }
    }
}

fn query_contains_box(query: &Aabb3, b: &Aabb3) -> bool {
    (0..3).all(|a| query.lo[a] <= b.lo[a] && b.hi[a] <= query.hi[a])
}

/// Append the particles of one decoded file that fall inside `query`,
/// returning how many were kept. Files whose bounds lie fully inside the
/// query skip the per-particle containment test.
///
/// This is the box step of [`Query::retain`], shared by the serial scan
/// and the `spio-serve` concurrent executor.
pub fn append_box_hits(
    query: &Aabb3,
    file_bounds: &Aabb3,
    particles: &[Particle],
    out: &mut Vec<Particle>,
) -> usize {
    if query_contains_box(query, file_bounds) {
        out.extend_from_slice(particles);
        particles.len()
    } else {
        let before = out.len();
        out.extend(
            particles
                .iter()
                .filter(|p| query.contains(p.position))
                .copied(),
        );
        out.len() - before
    }
}

/// Parallel visualization-style reads (§5.3): `n` readers (usually far
/// fewer than the writers) each take one cell of a near-cubic split of the
/// domain and box-query it.
pub struct BoxQueryReader;

impl BoxQueryReader {
    /// The subdomain assigned to `rank` of `nreaders`.
    pub fn reader_query(domain: &Aabb3, nreaders: usize, rank: usize) -> Aabb3 {
        let dims = GridDims::near_cubic(nreaders);
        domain.cell(dims.as_array(), dims.delinearize(rank))
    }

    /// Collective distributed read: every rank reads its subdomain.
    /// Returns this rank's particles and stats.
    pub fn read<C: Comm, S: Storage>(
        comm: &C,
        storage: &S,
        use_metadata: bool,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let reader = DatasetReader::open(storage)?;
        let query = Self::reader_query(&reader.meta.domain, comm.size(), comm.rank());
        if use_metadata {
            reader.read_box(storage, &query)
        } else {
            reader.read_box_without_metadata(storage, &query)
        }
    }
}

/// Restart reads: load a checkpoint back into a (possibly different-sized)
/// simulation. Each rank of the new job box-queries its own patch, so the
/// dataset redistributes itself onto the new decomposition — the paper's
/// "reads with different core counts than were used to write the data"
/// (§2.1), applied to checkpoint/restart.
pub struct RestartReader;

impl RestartReader {
    /// Collective: rank `comm.rank()` of the new job receives exactly the
    /// particles inside its patch of `new_decomp`.
    pub fn read<C: Comm, S: Storage>(
        comm: &C,
        new_decomp: &DomainDecomposition,
        storage: &S,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        if comm.size() != new_decomp.nprocs() {
            return Err(SpioError::Config(format!(
                "communicator size {} != new decomposition {}",
                comm.size(),
                new_decomp.nprocs()
            )));
        }
        let reader = DatasetReader::open(storage)?;
        let patch = new_decomp.patch_bounds(comm.rank());
        reader.read_box(storage, &patch)
    }
}

/// One data file read as a growing payload prefix: the header (and, for v2
/// files, the checksum footer) on first touch, then contiguous ranged
/// payload reads verified chunk by chunk. [`DatasetReader::fetch`] reads an
/// LOD prefix with one; [`LodCursor`] extends one per file per level.
#[derive(Clone)]
struct PrefixReader {
    name: String,
    total: u64,
    read_so_far: u64,
    verify: FileVerify,
}

/// Per-file integrity state for ranged LOD reads.
#[derive(Clone)]
enum FileVerify {
    /// Header not fetched yet — resolved on this file's first range read.
    Unopened,
    /// v1 file (or checksums disabled): nothing to verify.
    Plain,
    /// v2 checksummed file: the footer's chunk CRCs plus a running CRC over
    /// the payload prefix streamed so far.
    Checksummed(ChunkVerifier),
}

impl PrefixReader {
    fn new(entry: &FileEntry) -> Self {
        PrefixReader {
            name: entry.file_name(),
            total: entry.particle_count,
            read_so_far: 0,
            verify: FileVerify::Unopened,
        }
    }

    /// Extend the prefix to `target` particles, returning the particles
    /// newly read (none when the prefix already reaches `target`). On error
    /// the reader is left part-way; callers that retry start from a copy
    /// taken before the call.
    fn extend_to<S: Storage>(
        &mut self,
        storage: &S,
        target: u64,
        stats: &mut ReadStats,
    ) -> Result<Vec<Particle>, SpioError> {
        if target <= self.read_so_far {
            return Ok(Vec::new());
        }
        if matches!(self.verify, FileVerify::Unopened) {
            self.verify = self.open(storage, stats)?;
        }
        let (start, end) = payload_range(self.read_so_far as usize, target as usize);
        let bytes = storage.read_range(&self.name, start, end)?;
        stats.files_opened += 1;
        stats.bytes_read += bytes.len() as u64;
        if let FileVerify::Checksummed(v) = &mut self.verify {
            v.absorb(&self.name, &bytes)?;
            if target == self.total {
                v.finish(&self.name)?;
            }
        }
        self.read_so_far = target;
        Ok(spio_types::particle::decode_particles(&bytes))
    }

    /// First touch: fetch and validate the header, and for checksummed
    /// (v2) files also the tiny checksum footer — two small ranged reads,
    /// far cheaper than reading the file whole, which is the point of LOD
    /// prefix reads.
    fn open<S: Storage>(
        &self,
        storage: &S,
        stats: &mut ReadStats,
    ) -> Result<FileVerify, SpioError> {
        let header_bytes = storage.read_range(&self.name, 0, HEADER_BYTES as u64)?;
        stats.bytes_read += header_bytes.len() as u64;
        let header = DataFileHeader::decode(&header_bytes)?;
        if header.particle_count != self.total {
            return Err(SpioError::Format(format!(
                "'{}' header declares {} particles but metadata says {}",
                self.name, header.particle_count, self.total
            )));
        }
        if !header.has_checksums() {
            return Ok(FileVerify::Plain);
        }
        let (start, end) = footer_range(&header);
        let footer = storage.read_range(&self.name, start, end)?;
        stats.bytes_read += footer.len() as u64;
        let crcs = footer
            .as_chunks::<4>()
            .0
            .iter()
            .map(|c| u32::from_le_bytes(*c))
            .collect();
        Ok(FileVerify::Checksummed(ChunkVerifier::new(&header, crcs)))
    }
}

/// Streams payload bytes and verifies each completed checksum chunk.
///
/// LOD levels extend a file's prefix by contiguous ranged reads, so a
/// single running CRC suffices: feed every fetched byte, and at each chunk
/// boundary compare against the footer and reset. The final partial chunk
/// is verified when the prefix reaches the end of the file; a prefix that
/// stops mid-chunk leaves only that chunk's tail unverified — without
/// re-reading anything, that is the strongest guarantee available.
#[derive(Clone)]
struct ChunkVerifier {
    chunk_bytes: u64,
    crcs: Vec<u32>,
    running: Crc32,
    bytes_in_chunk: u64,
    next_chunk: usize,
}

impl ChunkVerifier {
    fn new(header: &DataFileHeader, crcs: Vec<u32>) -> Self {
        ChunkVerifier {
            chunk_bytes: header.checksum_chunk as u64 * PARTICLE_BYTES as u64,
            crcs,
            running: Crc32::new(),
            bytes_in_chunk: 0,
            next_chunk: 0,
        }
    }

    fn mismatch(&self, name: &str) -> SpioError {
        SpioError::Format(format!(
            "payload checksum mismatch in chunk {} of '{name}'",
            self.next_chunk
        ))
    }

    /// Feed the next contiguous slice of payload, checking every chunk it
    /// completes.
    fn absorb(&mut self, name: &str, mut bytes: &[u8]) -> Result<(), SpioError> {
        while !bytes.is_empty() {
            let room = (self.chunk_bytes - self.bytes_in_chunk) as usize;
            let take = room.min(bytes.len());
            self.running.update(&bytes[..take]);
            self.bytes_in_chunk += take as u64;
            bytes = &bytes[take..];
            if self.bytes_in_chunk == self.chunk_bytes {
                if self.crcs.get(self.next_chunk) != Some(&self.running.finalize()) {
                    return Err(self.mismatch(name));
                }
                self.running.reset();
                self.bytes_in_chunk = 0;
                self.next_chunk += 1;
            }
        }
        Ok(())
    }

    /// The prefix now covers the whole file: verify the trailing partial
    /// chunk, if any.
    fn finish(&mut self, name: &str) -> Result<(), SpioError> {
        if self.bytes_in_chunk > 0 {
            if self.crcs.get(self.next_chunk) != Some(&self.running.finalize()) {
                return Err(self.mismatch(name));
            }
            self.running.reset();
            self.bytes_in_chunk = 0;
            self.next_chunk += 1;
        }
        Ok(())
    }
}

/// Progressive level-of-detail reads over a set of files (§4, §5.4).
///
/// The cursor keeps one growing prefix per file. Each level extends every
/// file's prefix to the proportional share of the global level boundary, so
/// after reading through level `l` the union across all readers is a
/// uniform subsample of `prefix_len(n, l)` particles.
pub struct LodCursor {
    files: Vec<PrefixReader>,
    /// Total particles in the dataset (not just this cursor's files).
    dataset_total: u64,
    lod: LodParams,
    /// Number of reader processes `n` in the LOD formula.
    nreaders: u64,
    next_level: u32,
    trace: Trace,
    rank: Rank,
}

impl LodCursor {
    /// Build a cursor over the metadata entries at `file_indices`
    /// (typically this reader's share of the files).
    pub fn new(meta: &SpatialMetadata, file_indices: &[usize], nreaders: usize) -> Self {
        LodCursor {
            files: file_indices
                .iter()
                .map(|&i| PrefixReader::new(&meta.entries[i]))
                .collect(),
            dataset_total: meta.total_particles,
            lod: meta.lod,
            nreaders: nreaders as u64,
            next_level: 0,
            trace: Trace::off(),
            rank: 0,
        }
    }

    /// Record a `read:lod` phase span per level read into `trace`,
    /// attributed to `rank`.
    pub fn with_trace(mut self, trace: Trace, rank: Rank) -> Self {
        self.trace = trace;
        self.rank = rank;
        self
    }

    /// Round-robin assignment of files to a reader: reader `rank` of
    /// `nreaders` handles entries `rank, rank + nreaders, …`.
    pub fn files_for_reader(meta: &SpatialMetadata, nreaders: usize, rank: usize) -> Vec<usize> {
        (rank..meta.entries.len()).step_by(nreaders).collect()
    }

    /// Number of levels available (dataset-wide).
    pub fn num_levels(&self) -> u32 {
        self.lod.num_levels(self.nreaders, self.dataset_total)
    }

    /// The next level this cursor would read.
    pub fn next_level(&self) -> u32 {
        self.next_level
    }

    /// Particles accumulated so far across this cursor's files.
    pub fn particles_loaded(&self) -> u64 {
        self.files.iter().map(|f| f.read_so_far).sum()
    }

    /// Read the next level: extend every file prefix to its share of the
    /// cumulative level boundary, returning the newly loaded particles.
    /// Returns an empty vector once all levels are consumed.
    ///
    /// A level is all-or-nothing: if any file fails, no file's prefix
    /// advances, so a retry returns the whole level or an error again.
    pub fn read_next_level<S: Storage>(
        &mut self,
        storage: &S,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let t0 = Instant::now();
        let mut stats = ReadStats::default();
        let mut out = Vec::new();
        if self.next_level >= self.num_levels() {
            stats.time = t0.elapsed();
            return Ok((out, stats));
        }
        let global_prefix = self
            .lod
            .prefix_len(self.nreaders, self.next_level, self.dataset_total);
        let mut next = self.files.clone();
        for f in &mut next {
            let target = LodParams::file_prefix(f.total, self.dataset_total, global_prefix);
            out.extend(f.extend_to(storage, target, &mut stats)?);
        }
        self.files = next;
        self.next_level += 1;
        stats.particles_read = out.len() as u64;
        stats.time = t0.elapsed();
        self.trace.phase(self.rank, phases::LOD, stats.time);
        Ok((out, stats))
    }

    /// Read levels `0 ..= level` (from the cursor's current position),
    /// returning everything loaded.
    pub fn read_through_level<S: Storage>(
        &mut self,
        storage: &S,
        level: u32,
    ) -> Result<(Vec<Particle>, ReadStats), SpioError> {
        let mut out = Vec::new();
        let mut all_stats = Vec::new();
        while self.next_level <= level && self.next_level < self.num_levels() {
            let (ps, stats) = self.read_next_level(storage)?;
            out.extend(ps);
            all_stats.push(stats);
        }
        let mut merged = ReadStats::merge(&all_stats);
        merged.time = all_stats.iter().map(|s| s.time).sum();
        Ok((out, merged))
    }
}

impl DatasetReader {
    /// A LOD cursor restricted to the files intersecting `query`:
    /// progressive refinement *within a region* (e.g. a view frustum) —
    /// each level touches only the relevant files, and within them only
    /// prefix bytes.
    pub fn lod_box_cursor(&self, query: &Aabb3, nreaders: usize) -> LodCursor {
        let files = self.select(&Query::Box(*query));
        LodCursor::new(&self.meta, &files, nreaders).with_trace(self.trace.clone(), self.rank)
    }
}

/// Convenience wrapper: a full-dataset progressive reader for one rank of a
/// reader group, with files assigned round-robin.
pub struct LodReader {
    pub cursor: LodCursor,
}

impl LodReader {
    /// Open the dataset and build this rank's cursor.
    pub fn open<S: Storage>(storage: &S, nreaders: usize, rank: usize) -> Result<Self, SpioError> {
        let reader = DatasetReader::open(storage)?;
        let indices = LodCursor::files_for_reader(&reader.meta, nreaders, rank);
        Ok(LodReader {
            cursor: LodCursor::new(&reader.meta, &indices, nreaders),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::writer::{SpatialWriter, WriterConfig};
    use spio_comm::run_threaded_collect;
    use spio_types::{DomainDecomposition, PartitionFactor};

    /// Write a 4×4×1 dataset with 2×2 aggregation, `per_rank` particles per
    /// rank laid out deterministically inside each patch.
    fn build_dataset(per_rank: usize) -> MemStorage {
        let storage = MemStorage::new();
        let s2 = storage.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 4, 1));
        run_threaded_collect(16, move |comm| {
            let b = d.patch_bounds(comm.rank());
            let e = b.extent();
            let particles: Vec<Particle> = (0..per_rank)
                .map(|i| {
                    let t = (i as f64 + 0.5) / per_rank as f64;
                    let u = ((i * 13 + 5) % per_rank) as f64 / per_rank as f64;
                    Particle::synthetic(
                        [b.lo[0] + t * e[0] * 0.99, b.lo[1] + u * e[1] * 0.99, 0.5],
                        ((comm.rank() as u64) << 32) | i as u64,
                    )
                })
                .collect();
            let writer =
                SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(2, 2, 1)));
            writer.write(&comm, &particles, &s2).unwrap();
        })
        .unwrap();
        storage
    }

    #[test]
    fn open_parses_metadata() {
        let storage = build_dataset(20);
        let r = DatasetReader::open(&storage).unwrap();
        assert_eq!(r.meta.entries.len(), 4);
        assert_eq!(r.meta.total_particles, 320);
    }

    #[test]
    fn box_query_reads_only_needed_files() {
        let storage = build_dataset(20);
        let r = DatasetReader::open(&storage).unwrap();
        // Query strictly inside the lower-left quadrant.
        let q = Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]);
        let (ps, stats) = r.read_box(&storage, &q).unwrap();
        assert_eq!(stats.files_opened, 1, "one quadrant ⇒ one file");
        assert!(ps.iter().all(|p| q.contains(p.position)));
        assert!(!ps.is_empty());
    }

    #[test]
    fn without_metadata_reads_everything() {
        let storage = build_dataset(20);
        let r = DatasetReader::open(&storage).unwrap();
        let q = Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]);
        let (with, s_with) = r.read_box(&storage, &q).unwrap();
        let (without, s_without) = r.read_box_without_metadata(&storage, &q).unwrap();
        // Same answer…
        let mut a: Vec<u64> = with.iter().map(|p| p.id).collect();
        let mut b: Vec<u64> = without.iter().map(|p| p.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // …but the metadata-less read opened all 4 files and discarded most
        // of what it decoded.
        assert_eq!(s_without.files_opened, 4);
        assert!(s_without.bytes_read > s_with.bytes_read);
        assert!(s_without.particles_discarded > 0);
    }

    #[test]
    fn full_domain_read_recovers_every_particle() {
        let storage = build_dataset(25);
        let r = DatasetReader::open(&storage).unwrap();
        let (ps, _) = r.read_all(&storage).unwrap();
        assert_eq!(ps.len(), 400);
        let mut ids: Vec<u64> = ps.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "no duplicates");
    }

    #[test]
    fn parallel_box_readers_partition_the_domain() {
        let storage = build_dataset(20);
        let results = run_threaded_collect(4, move |comm| {
            let (ps, stats) = BoxQueryReader::read(&comm, &storage.clone(), true).unwrap();
            (ps, stats.files_opened)
        })
        .unwrap();
        let total: usize = results.iter().map(|(ps, _)| ps.len()).sum();
        assert_eq!(total, 320, "readers together recover the dataset");
        // Reader subdomains are disjoint: no particle appears twice.
        let mut ids: Vec<u64> = results
            .iter()
            .flat_map(|(ps, _)| ps.iter().map(|p| p.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 320);
    }

    #[test]
    fn lod_levels_accumulate_to_full_dataset() {
        let storage = build_dataset(32); // total 512
        let r = DatasetReader::open(&storage).unwrap();
        let indices: Vec<usize> = (0..r.meta.entries.len()).collect();
        let mut cursor = LodCursor::new(&r.meta, &indices, 1);
        // P=32, S=2, n=1, total=512 ⇒ levels 32, 64, 128, 256, 32.
        assert_eq!(cursor.num_levels(), 5);
        let mut all = Vec::new();
        let mut level_sizes = Vec::new();
        for _ in 0..cursor.num_levels() {
            let (ps, _) = cursor.read_next_level(&storage).unwrap();
            level_sizes.push(ps.len());
            all.extend(ps);
        }
        assert_eq!(all.len(), 512);
        let mut ids: Vec<u64> = all.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 512, "levels are disjoint and complete");
        // Level sizes follow the geometric progression (up to proportional-
        // split rounding across 4 files).
        assert!((30..=36).contains(&level_sizes[0]), "{level_sizes:?}");
        assert!((60..=70).contains(&level_sizes[1]), "{level_sizes:?}");
        // Exhausted cursor returns nothing.
        let (ps, _) = cursor.read_next_level(&storage).unwrap();
        assert!(ps.is_empty());
    }

    #[test]
    fn lod_prefix_is_spatially_representative() {
        let storage = build_dataset(64); // total 1024
        let r = DatasetReader::open(&storage).unwrap();
        let indices: Vec<usize> = (0..r.meta.entries.len()).collect();
        let mut cursor = LodCursor::new(&r.meta, &indices, 1);
        let (ps, _) = cursor.read_through_level(&storage, 1).unwrap(); // ~96 particles
                                                                       // All four quadrants must be represented.
        for (qx, qy) in [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)] {
            let q = Aabb3::new([qx, qy, 0.0], [qx + 0.5, qy + 0.5, 1.0]);
            assert!(
                ps.iter().any(|p| q.contains(p.position)),
                "quadrant ({qx},{qy}) unrepresented in LOD prefix"
            );
        }
    }

    #[test]
    fn multi_reader_lod_covers_all_files() {
        let storage = build_dataset(32);
        let results = run_threaded_collect(2, move |comm| {
            let mut reader = LodReader::open(&storage.clone(), 2, comm.rank()).unwrap();
            let levels = reader.cursor.num_levels();
            let (ps, _) = reader
                .cursor
                .read_through_level(&storage.clone(), levels - 1)
                .unwrap();
            ps
        })
        .unwrap();
        let total: usize = results.iter().map(Vec::len).sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn restart_redistributes_onto_different_rank_counts() {
        let storage = build_dataset(25); // written by 16 ranks, 400 total
        for new_ranks in [2usize, 4, 8] {
            let s = storage.clone();
            let new_decomp = DomainDecomposition::uniform(
                Aabb3::new([0.0; 3], [1.0; 3]),
                GridDims::near_cubic(new_ranks),
            );
            let nd = new_decomp.clone();
            let per_rank = run_threaded_collect(new_ranks, move |comm| {
                let (ps, _) = RestartReader::read(&comm, &nd, &s).unwrap();
                // Everything landed in this rank's patch.
                let b = nd.patch_bounds(comm.rank());
                assert!(ps.iter().all(|p| b.contains(p.position)));
                ps.iter().map(|p| p.id).collect::<Vec<u64>>()
            })
            .unwrap();
            let mut all: Vec<u64> = per_rank.into_iter().flatten().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 400, "restart onto {new_ranks} ranks");
        }
    }

    #[test]
    fn restart_rejects_mismatched_world() {
        let storage = build_dataset(10);
        let res = run_threaded_collect(3, move |comm| {
            let nd = DomainDecomposition::uniform(
                Aabb3::new([0.0; 3], [1.0; 3]),
                GridDims::new(2, 1, 1), // needs 2 ranks, world is 3
            );
            RestartReader::read(&comm, &nd, &storage.clone()).map(|_| ())
        })
        .unwrap();
        assert!(res.iter().all(Result::is_err));
    }

    #[test]
    fn windowed_lod_refines_only_the_query_region() {
        let storage = build_dataset(64); // 1024 particles over 4 quadrant files
        let r = DatasetReader::open(&storage).unwrap();
        // Window covering only the lower-left quadrant.
        let q = Aabb3::new([0.05, 0.05, 0.0], [0.4, 0.4, 1.0]);
        let mut cursor = r.lod_box_cursor(&q, 1);
        let mut loaded = Vec::new();
        let mut bytes = 0;
        for _ in 0..cursor.num_levels() {
            let (ps, stats) = cursor.read_next_level(&storage).unwrap();
            loaded.extend(ps);
            bytes += stats.bytes_read;
        }
        // Only that quadrant's file was consumed: 256 of 1024 particles.
        assert_eq!(loaded.len(), 256);
        let quadrant = Aabb3::new([0.0, 0.0, 0.0], [0.5, 0.5, 1.0]);
        assert!(loaded.iter().all(|p| quadrant.contains(p.position)));
        // Far less I/O than the full dataset.
        assert!(bytes < storage.total_bytes() / 3);
    }

    #[test]
    fn reader_queries_tile_domain() {
        let domain = Aabb3::new([0.0; 3], [2.0; 3]);
        for n in [1, 2, 4, 8, 6] {
            let vol: f64 = (0..n)
                .map(|r| BoxQueryReader::reader_query(&domain, n, r).volume())
                .sum();
            assert!((vol - domain.volume()).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn open_missing_dataset_errors() {
        let storage = MemStorage::new();
        assert!(matches!(
            DatasetReader::open(&storage),
            Err(SpioError::NotFound(_))
        ));
    }
}
