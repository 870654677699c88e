//! Determinism: the same simulation state written twice with the same
//! configuration must produce byte-identical datasets, regardless of
//! thread scheduling — checkpoints are reproducible artifacts.

use spatial_particle_io::prelude::*;
use spio_core::{LodOrder, MemStorage, WriteMode};

fn write_once(
    factor: (usize, usize, usize),
    mode: WriteMode,
    adaptive: bool,
    order: LodOrder,
) -> MemStorage {
    let storage = MemStorage::new();
    let s = storage.clone();
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 1));
    spio_comm::run_threaded_collect(8, move |comm| {
        use spio_comm::Comm;
        // Uneven loads to exercise the adaptive path.
        let count = if comm.rank() < 4 { 400 } else { 100 };
        let ps = uniform_patch_particles(&d, comm.rank(), count, 7);
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(factor.0, factor.1, factor.2))
                .with_seed(99)
                .with_mode(mode)
                .with_lod_order(order)
                .adaptive(adaptive),
        )
        .write(&comm, &ps, &s)
        .unwrap();
    })
    .unwrap();
    storage
}

fn assert_identical(a: &MemStorage, b: &MemStorage, label: &str) {
    assert_eq!(a.file_names(), b.file_names(), "{label}: file sets differ");
    for name in a.file_names() {
        assert_eq!(
            a.read_file(&name).unwrap(),
            b.read_file(&name).unwrap(),
            "{label}: bytes of {name} differ"
        );
    }
}

type Config = (
    (usize, usize, usize),
    WriteMode,
    bool,
    LodOrder,
    &'static str,
);

/// The four writer configurations both determinism tests cover.
const CONFIGS: [Config; 4] = [
    (
        (2, 2, 1),
        WriteMode::Aligned,
        false,
        LodOrder::Random,
        "aligned",
    ),
    (
        (2, 1, 1),
        WriteMode::Aligned,
        true,
        LodOrder::Random,
        "adaptive",
    ),
    (
        (1, 2, 1),
        WriteMode::General,
        false,
        LodOrder::Random,
        "general",
    ),
    (
        (2, 2, 1),
        WriteMode::Aligned,
        false,
        LodOrder::Stratified,
        "stratified",
    ),
];

#[test]
fn repeated_writes_are_byte_identical() {
    for (factor, mode, adaptive, order, label) in CONFIGS {
        // Run several times: thread interleavings must never leak into the
        // output bytes.
        let reference = write_once(factor, mode, adaptive, order);
        for round in 0..3 {
            let again = write_once(factor, mode, adaptive, order);
            assert_identical(&reference, &again, &format!("{label} round {round}"));
        }
    }
}

/// Bit-at-a-time CRC-32/ISO-HDLC of `bytes` taken last byte first,
/// independent of `spio_util::crc32` so a change to the library CRC cannot
/// move the pinned digests with it. The bytes are reversed because a data
/// file stores the CRC of its header and of each payload chunk right after
/// them: a forward CRC over such a file folds each stored CRC into a
/// constant and depends on the file's length alone.
fn reference_digest(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes.iter().rev() {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// `(file, length, reference_digest)` of one written file.
type Digest = (&'static str, usize, u32);

/// Pinned digests of every file each configuration writes. Two runs of one
/// build agreeing cannot catch a change to the LOD permutation or the
/// encoding; these digests were recorded before the writer became
/// byte-native and hold every later writer to the same bytes.
const GOLDEN: [(&str, &[Digest]); 4] = [
    (
        "aligned",
        &[
            ("file_0.spd", 124100, 0x4f3741d7),
            ("file_4.spd", 124100, 0x7a42b01e),
            ("spatial_meta.spm", 312, 0xe0eb9bb3),
        ],
    ),
    (
        "adaptive",
        &[
            ("file_0.spd", 99300, 0x15c7f073),
            ("file_2.spd", 99300, 0x342bea84),
            ("file_4.spd", 24900, 0xf2122286),
            ("file_6.spd", 24900, 0x10945847),
            ("spatial_meta.spm", 504, 0x8ac2d382),
        ],
    ),
    (
        "general",
        &[
            ("file_0.spd", 62100, 0x1152682a),
            ("file_2.spd", 62100, 0x18123208),
            ("file_4.spd", 62100, 0x4471f06f),
            ("file_6.spd", 62100, 0xd80fa074),
            ("spatial_meta.spm", 504, 0x42533a86),
        ],
    ),
    (
        "stratified",
        &[
            ("file_0.spd", 124100, 0x531f16f8),
            ("file_4.spd", 124100, 0xc415c4a7),
            ("spatial_meta.spm", 312, 0xe0eb9bb3),
        ],
    ),
];

#[test]
fn writes_match_golden_digests() {
    for ((factor, mode, adaptive, order, label), (golden_label, golden)) in
        CONFIGS.into_iter().zip(GOLDEN)
    {
        assert_eq!(label, golden_label);
        let storage = write_once(factor, mode, adaptive, order);
        let got: Vec<(String, usize, u32)> = storage
            .file_names()
            .into_iter()
            .map(|name| {
                let bytes = storage.read_file(&name).unwrap();
                let digest = reference_digest(&bytes);
                (name, bytes.len(), digest)
            })
            .collect();
        let want: Vec<(String, usize, u32)> = golden
            .iter()
            .map(|&(n, len, crc)| (n.to_string(), len, crc))
            .collect();
        assert_eq!(
            got, want,
            "{label}: file digests differ from the pinned ones"
        );
    }
}

#[test]
fn different_seeds_produce_different_layouts_same_content() {
    use spio_core::DatasetReader;
    let d = DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 1));
    let write_with_seed = |seed: u64| {
        let storage = MemStorage::new();
        let s = storage.clone();
        let dd = d.clone();
        spio_comm::run_threaded_collect(8, move |comm| {
            use spio_comm::Comm;
            let ps = uniform_patch_particles(&dd, comm.rank(), 200, 7);
            SpatialWriter::new(
                dd.clone(),
                WriterConfig::new(PartitionFactor::new(2, 2, 1)).with_seed(seed),
            )
            .write(&comm, &ps, &s)
            .unwrap();
        })
        .unwrap();
        storage
    };
    let a = write_with_seed(1);
    let b = write_with_seed(2);
    // Same logical dataset…
    let ra = DatasetReader::open(&a).unwrap();
    let rb = DatasetReader::open(&b).unwrap();
    let mut ids_a: Vec<u64> = ra.read_all(&a).unwrap().0.iter().map(|p| p.id).collect();
    let mut ids_b: Vec<u64> = rb.read_all(&b).unwrap().0.iter().map(|p| p.id).collect();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    // …different physical layout (the shuffle seed changed).
    let name = ra.meta.entries[0].file_name();
    assert_ne!(a.read_file(&name).unwrap(), b.read_file(&name).unwrap());
}
