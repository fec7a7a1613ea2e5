//! The persistent store's headline property (acceptance criterion of
//! the crash-safe cache PR): **for any workload and any injected store
//! corruption, a warm run from the (possibly corrupted) persisted
//! cache produces output bytes identical to a cold run, and corrupted
//! records are quarantined — never returned as hits.**
//!
//! The binary record codec gets the same treatment below its checksum:
//! real records of all four rewrite stages round-trip canonically, and
//! truncated, bit-flipped, over-long, unknown-variant and padded
//! payloads are rejected (never a panic, never a wrong hit). A
//! format-version-1 (JSON-payload) segment is quarantined whole.

use incremental_cfg_patching::core::cache::recode_record;
use incremental_cfg_patching::core::{
    store, CacheStore, CorruptKind, Instrumentation, Points, RewriteCache, RewriteConfig,
    RewriteMode, Rewriter, Stage, StoreOp, Trace, TraceEvent,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![Just(RewriteMode::Dir), Just(RewriteMode::Jt), Just(RewriteMode::FuncPtr)]
}

fn arb_kind() -> impl Strategy<Value = CorruptKind> {
    prop_oneof![
        Just(CorruptKind::BitFlip),
        Just(CorruptKind::Truncate),
        Just(CorruptKind::StaleVersion),
    ]
}

fn arb_params() -> impl Strategy<Value = GenParams> {
    (arb_arch(), 0u64..500, 1usize..3, 0usize..3, 2usize..6).prop_map(
        |(arch, seed, compute, switches, cases)| {
            let mut p = GenParams::small("propstore", arch, seed);
            p.compute_funcs = compute;
            p.switch_funcs = switches;
            p.switch_cases = cases;
            p.outer_iters = 16;
            p
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn corrupted_store_never_changes_output_bytes(
        params in arb_params(),
        mode in arb_mode(),
        kind in arb_kind(),
        corrupt_seed in 0u64..1_000,
    ) {
        let w = generate(&params);
        let rw = Rewriter::new(RewriteConfig::new(mode));
        let instr = Instrumentation::empty(Points::EveryBlock);

        let cold = rw
            .rewrite_cached(&w.binary, &instr, &RewriteCache::new())
            .map_err(|e| TestCaseError::fail(format!("cold rewrite failed: {e}")))?;

        let dir = std::env::temp_dir().join(format!(
            "icfgp-propstore-{}-{}-{corrupt_seed}",
            std::process::id(),
            params.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Populate and persist (a first `icfgp` invocation).
        {
            let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let _ = rw
                .rewrite_cached(&w.binary, &instr, &cache)
                .map_err(|e| TestCaseError::fail(format!("populate rewrite failed: {e}")))?;
            prop_assert!(cache.flush_store() > 0, "populate run must persist records");
        }

        // Damage the store on disk.
        let what = store::corrupt_dir(&dir, kind, corrupt_seed)
            .map_err(TestCaseError::fail)?;

        // Warm run over the damaged store (a second invocation).
        let store = Arc::new(CacheStore::open(&dir));
        let cache = RewriteCache::with_store(store.clone());
        let warm = rw
            .rewrite_cached(&w.binary, &instr, &cache)
            .map_err(|e| TestCaseError::fail(format!("warm rewrite failed ({what}): {e}")))?;

        prop_assert_eq!(
            &cold.binary, &warm.binary,
            "output bytes diverged after store corruption ({})", what
        );
        // The damage was detected, not served: at least one record or
        // segment is quarantined (open-time and lookup-time combined).
        let s = store.stats();
        prop_assert!(
            s.quarantined_records + s.quarantined_segments >= 1,
            "corruption must quarantine something ({}): {:?}", what, s
        );
        // And an offline verify sees the same damage.
        let report = store::verify_dir(&dir);
        prop_assert!(!report.is_clean(), "verify_dir must flag the damage ({})", what);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----- the binary record codec, below the checksum --------------------

/// Segment header: magic, format version (u32), key epoch (u64).
const HEADER_LEN: usize = 8 + 4 + 8;
/// Record frame before the payload: tag, key, length, checksum.
const FRAME_LEN: usize = 1 + 8 + 4 + 8;
/// The four per-function rewrite stages (store tags 1..=4).
const REWRITE_STAGES: [Stage; 4] = [Stage::Func, Stage::Liveness, Stage::Fragment, Stage::Emit];

fn stage_of(tag: u8) -> Stage {
    Stage::ALL[usize::from(tag) - 1]
}

fn tag_of(stage: Stage) -> u8 {
    Stage::ALL.iter().position(|s| *s == stage).expect("known stage") as u8 + 1
}

/// Every record of every segment in `dir`, parsed by hand from the
/// documented on-disk layout.
fn read_records(dir: &Path) -> Vec<(Stage, u64, Vec<u8>)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let data = std::fs::read(&path).expect("segment");
        let mut at = HEADER_LEN;
        while at + FRAME_LEN <= data.len() {
            let key = u64::from_le_bytes(data[at + 1..at + 9].try_into().unwrap());
            let len = u32::from_le_bytes(data[at + 9..at + 13].try_into().unwrap()) as usize;
            let payload = data[at + FRAME_LEN..at + FRAME_LEN + len].to_vec();
            out.push((stage_of(data[at]), key, payload));
            at += FRAME_LEN + len;
        }
    }
    out
}

/// A segment image with a correct header and checksums, so damage to a
/// payload reaches the decoder instead of being caught at load.
fn segment(version: u32, records: &[(Stage, u64, Vec<u8>)]) -> Vec<u8> {
    let mut body = b"ICFGPST\x01".to_vec();
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&store::KEY_EPOCH.to_le_bytes());
    for (stage, key, payload) in records {
        let tag = tag_of(*stage);
        body.push(tag);
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let sum = store::checksum64(&[&[tag], &key.to_le_bytes(), payload]);
        body.extend_from_slice(&sum.to_le_bytes());
        body.extend_from_slice(payload);
    }
    body
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Split a leading varint off `bytes`: `(value, its length)`.
fn leading_varint(bytes: &[u8]) -> (u64, usize) {
    let mut v = 0u64;
    for (i, b) in bytes.iter().enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return (v, i + 1);
        }
    }
    panic!("unterminated varint");
}

/// Offset of the first patch point's `kind` (an enum variant index) in
/// an emit record: `bytes` (length + raw), the patch count, then the
/// first patch's `entry_idx`, `off` and `width` varints.
fn first_patch_kind_at(payload: &[u8]) -> Option<usize> {
    let (code_len, n) = leading_varint(payload);
    let mut at = n + code_len as usize;
    let (patches, n) = leading_varint(&payload[at..]);
    if patches == 0 {
        return None;
    }
    at += n;
    for _ in 0..3 {
        at += leading_varint(&payload[at..]).1;
    }
    Some(at)
}

fn tmp_dir(tag: &str, arch: Arch, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icfgp-propstore-{tag}-{}-{arch:?}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Check every mutation class against one real record.
fn assert_rejects_damage(stage: Stage, payload: &[u8], seed: u64) -> Result<(), TestCaseError> {
    let what = format!("{stage:?} record of {} byte(s)", payload.len());
    // Truncation at every length.
    for cut in 0..payload.len() {
        prop_assert!(
            recode_record(stage, &payload[..cut]).is_err(),
            "{} truncated to {} decoded", what, cut
        );
    }
    // Trailing bytes.
    for pad in [&[0u8][..], &[1, 2, 3]] {
        let mut padded = payload.to_vec();
        padded.extend_from_slice(pad);
        prop_assert!(
            recode_record(stage, &padded).is_err(),
            "{} with trailing bytes decoded", what
        );
    }
    // Oversized length prefix: every rewrite record opens with one
    // (the CFG name, the liveness map, the fragment entries, the
    // emitted code).
    let (_, n) = leading_varint(payload);
    let rest = &payload[n..];
    for huge in [rest.len() as u64 + 1, u32::MAX.into(), u64::MAX] {
        let mut bad = varint(huge);
        bad.extend_from_slice(rest);
        prop_assert!(
            recode_record(stage, &bad).is_err(),
            "{} with length prefix {} decoded", what, huge
        );
    }
    // Bit flips: decoding must not panic, and whatever it accepts must
    // re-encode to exactly the flipped bytes (canonical decoding), so a
    // flip can never alias a different well-formed record silently.
    let bits = payload.len() * 8;
    let mut x = seed | 1;
    for _ in 0..256 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bit = (x % bits as u64) as usize;
        let mut flipped = payload.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(again) = recode_record(stage, &flipped) {
            prop_assert_eq!(&again, &flipped, "{} bit {} decoded non-canonically", what, bit);
        }
    }
    // Unknown variant index: the first patch point's kind in an emit
    // record (a four-variant enum).
    if stage == Stage::Emit {
        if let Some(at) = first_patch_kind_at(payload) {
            let mut bad = payload.to_vec();
            bad[at] = 0x7f;
            prop_assert!(recode_record(stage, &bad).is_err(), "{} with variant 127 decoded", what);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Real records of all four rewrite stages, on all three
    /// architectures: each round-trips byte-identically, each mutation
    /// class is rejected by the decoder, and a warm run over a store
    /// whose records were damaged *below* the checksum quarantines
    /// exactly those records and still reproduces the cold bytes.
    #[test]
    fn record_codec_round_trips_and_rejects_damage(seed in 0u64..500) {
        for arch in [Arch::X64, Arch::Ppc64le, Arch::Aarch64] {
            let mut params = GenParams::small("propcodec", arch, seed);
            params.switch_funcs = 2;
            let binary = generate(&params).binary;
            let rw = Rewriter::new(RewriteConfig::new(RewriteMode::FuncPtr));
            let instr = Instrumentation::empty(Points::EveryBlock);
            let cold = rw.rewrite_cached(&binary, &instr, &RewriteCache::new())
                .map_err(|e| TestCaseError::fail(format!("cold rewrite failed: {e}")))?;

            let dir = tmp_dir("codec", arch, seed);
            {
                let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
                rw.rewrite_cached(&binary, &instr, &cache)
                    .map_err(|e| TestCaseError::fail(format!("populate failed: {e}")))?;
                prop_assert!(cache.flush_store() > 0);
            }
            let records = read_records(&dir);
            for (stage, key, payload) in &records {
                let again = recode_record(*stage, payload);
                prop_assert_eq!(
                    again.as_ref().ok(), Some(payload),
                    "{:?} record {:#x} does not round-trip", stage, key
                );
            }
            // One record per stage, chosen by the seed, is damaged.
            let mut victims = Vec::new();
            for stage in REWRITE_STAGES {
                let of_stage: Vec<usize> =
                    (0..records.len()).filter(|&i| records[i].0 == stage).collect();
                prop_assert!(!of_stage.is_empty(), "{:?}: no {:?} records", arch, stage);
                let i = of_stage[seed as usize % of_stage.len()];
                assert_rejects_damage(stage, &records[i].2, seed ^ records[i].1)?;
                victims.push(i);
            }

            // Truncate each victim by one byte behind a valid checksum.
            let damaged: Vec<(Stage, u64, Vec<u8>)> = records
                .iter()
                .enumerate()
                .map(|(i, (stage, key, payload))| {
                    let keep = payload.len() - usize::from(victims.contains(&i));
                    (*stage, *key, payload[..keep].to_vec())
                })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join("seg-000000.seg"), segment(store::FORMAT_VERSION, &damaged))
                .expect("write segment");
            let store = CacheStore::open_traced(
                &dir, Duration::from_secs(2), Trace::recording(),
            );
            let cache = RewriteCache::with_store(Arc::new(store));
            let warm = rw.rewrite_cached(&binary, &instr, &cache)
                .map_err(|e| TestCaseError::fail(format!("warm rewrite failed: {e}")))?;
            prop_assert_eq!(
                &cold.binary, &warm.binary,
                "{:?}: damaged records changed output", arch
            );
            let events = cache.trace().sealed();
            for stage in REWRITE_STAGES {
                let quarantined = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Store {
                        op: StoreOp::LookupQuarantine { stage: s }, ..
                    } if *s == stage))
                    .count();
                prop_assert_eq!(quarantined, 1, "{:?}: {:?} quarantines", arch, stage);
            }
            let s = cache.store_stats();
            prop_assert_eq!(
                s.hits + 4, records.len() as u64,
                "{:?}: every other record hits", arch
            );
            drop(cache);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A derived enum as the codec sees it: its variant index, then fields.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Probe {
    Unit,
    Pair(u64, i32),
    Named { items: Vec<u16>, tag: Option<String> },
}

#[test]
fn derived_types_reject_unknown_variants_and_oversized_lengths() {
    for v in [
        Probe::Unit,
        Probe::Pair(u64::MAX, -7),
        Probe::Named { items: vec![1, 300, 65_535], tag: Some("t".into()) },
    ] {
        let bytes = serde::to_bytes(&v);
        assert_eq!(serde::from_bytes::<Probe>(&bytes).expect("round trip"), v);
    }
    assert!(serde::from_bytes::<Probe>(&[3]).is_err(), "variant index 3 of 3");
    assert!(serde::from_bytes::<Probe>(&varint(u64::MAX)).is_err());
    // `Named` with an item count far past the bytes left: rejected
    // before any allocation is sized by it.
    let mut bad = varint(2);
    bad.extend(varint(u64::MAX >> 1));
    assert!(serde::from_bytes::<Probe>(&bad).is_err());
}

fn icfgp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_icfgp"))
}

/// A store written by the format-version-1 (JSON payload) code: the
/// fixture is the segment `icfgp rewrite --mode func-ptr --cache-dir`
/// wrote for the x86-64 `switch_demo` workload before the binary codec.
/// It must be quarantined whole (never decoded), cost nothing but the
/// recompute, and be swept by `cache compact`.
#[test]
fn json_era_segment_is_quarantined_and_compacted_away() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_v1/seg-000000.seg");
    let seg = std::fs::read(&fixture).expect("fixture");
    assert_eq!(&seg[8..12], &1u32.to_le_bytes(), "fixture is format version 1");
    assert_eq!(seg[HEADER_LEN + FRAME_LEN], b'{', "fixture payloads are JSON");

    let dir = tmp_dir("v1", Arch::X64, 0);
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).expect("mkdir");
    std::fs::write(store_dir.join("seg-000000.seg"), &seg).expect("copy fixture");
    let input = dir.join("sd.json");
    let gen = icfgp()
        .args(["gen", "--workload", "switch_demo", "--arch", "x86-64", "-o"])
        .arg(&input)
        .output()
        .expect("gen runs");
    assert_eq!(gen.status.code(), Some(0), "{}", String::from_utf8_lossy(&gen.stderr));
    let rewrite = |out: &str, store: bool| {
        let mut cmd = icfgp();
        cmd.arg("rewrite").arg(&input).args(["--mode", "func-ptr", "--stats", "-o"]);
        cmd.arg(dir.join(out));
        if store {
            cmd.arg("--cache-dir").arg(&store_dir);
        }
        let o = cmd.output().expect("rewrite runs");
        assert!(matches!(o.status.code(), Some(0 | 1)), "{}", String::from_utf8_lossy(&o.stderr));
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (text(&o.stdout), text(&o.stderr))
    };
    rewrite("cold.json", false);
    let (stdout, stderr) = rewrite("warm.json", true);
    assert!(stdout.contains("persisted: 0/"), "no v1 record may hit:\n{stdout}");
    assert!(stderr.contains("format version 1"), "version skew reported:\n{stderr}");
    assert_eq!(
        std::fs::read(dir.join("cold.json")).expect("cold"),
        std::fs::read(dir.join("warm.json")).expect("warm"),
        "a v1 store must not change output bytes"
    );
    assert!(store_dir.join("seg-000000.seg.quarantined").exists(), "v1 segment quarantined");

    let compact = icfgp()
        .args(["cache", "compact", "--cache-dir"])
        .arg(&store_dir)
        .output()
        .expect("compact runs");
    assert_eq!(compact.status.code(), Some(0), "{}", String::from_utf8_lossy(&compact.stderr));
    assert!(!store_dir.join("seg-000000.seg.quarantined").exists(), "compact sweeps it");
    let report = store::verify_dir(&store_dir);
    assert!(report.is_clean() && report.valid_records > 0, "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
