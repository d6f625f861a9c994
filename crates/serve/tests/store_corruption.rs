//! On-disk robustness of the embedding-store format: every way the file can
//! be damaged (flipped bits, truncation, foreign magic, future version,
//! length lies, bad precision bytes, corrupted quantization parameters)
//! must surface as a typed `CoaneError::Store` / `Io` — never a panic,
//! never a silently-wrong store. Covers both the version-1 f32 format and
//! the version-2 quantized (int8) format.

use coane_core::checkpoint::crc32;
use coane_error::CoaneError;
use coane_serve::{EmbeddingStore, Precision, STORE_FORMAT_VERSION_QUANT};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("coane-store-corruption-{name}-{}", std::process::id()));
    p
}

fn sample_store() -> EmbeddingStore {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data: Vec<f32> =
        (0..40 * 8).map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5).collect();
    let ids: Vec<u64> = (0..40).map(|i| 1000 + i * 3).collect();
    EmbeddingStore::new(data, 8, Some(ids), "corruption fixture").expect("valid store")
}

fn saved_bytes(store: &EmbeddingStore, name: &str) -> Vec<u8> {
    let path = tmp_path(name);
    store.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Writes raw bytes and expects `open` to fail with a Store error whose
/// message contains `expect_msg`.
fn assert_rejected(name: &str, bytes: &[u8], expect_msg: &str) {
    let path = tmp_path(name);
    std::fs::write(&path, bytes).expect("write corrupt file");
    let err = EmbeddingStore::open(&path).expect_err("corrupt store must not load");
    let _ = std::fs::remove_file(&path);
    match &err {
        CoaneError::Store { message, .. } => assert!(
            message.contains(expect_msg),
            "{name}: expected message containing {expect_msg:?}, got {message:?}"
        ),
        other => panic!("{name}: expected Store error, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 8, "{name}: store errors map to exit code 8");
}

#[test]
fn roundtrip_preserves_everything() {
    let store = sample_store();
    let path = tmp_path("roundtrip");
    store.save(&path).expect("save");
    let loaded = EmbeddingStore::open(&path).expect("open");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.len(), store.len());
    assert_eq!(loaded.dim(), store.dim());
    assert_eq!(loaded.meta(), store.meta());
    assert_eq!(loaded.ids(), store.ids());
    assert_eq!(loaded.vectors(), store.vectors());
    assert_eq!(loaded.index_of(1003), Some(1));
}

#[test]
fn every_single_bit_flip_in_payload_is_detected() {
    let store = sample_store();
    let bytes = saved_bytes(&store, "bitflip");
    // Flip one bit in a spread of payload positions (every 97th byte keeps
    // the test fast while covering meta, ids and vectors).
    for pos in (24..bytes.len()).step_by(97) {
        let mut dam = bytes.clone();
        dam[pos] ^= 0x10;
        assert_rejected(&format!("bitflip-{pos}"), &dam, "CRC32 mismatch");
    }
}

#[test]
fn truncation_is_detected_at_any_cut() {
    let store = sample_store();
    let bytes = saved_bytes(&store, "trunc");
    // Shorter than the header: structural error.
    assert_rejected("trunc-header", &bytes[..10], "too short");
    // Cut inside the payload: the header's length no longer matches.
    assert_rejected("trunc-payload", &bytes[..bytes.len() - 5], "length mismatch");
    // Padded file: also a length mismatch.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 3]);
    assert_rejected("padded", &padded, "length mismatch");
}

#[test]
fn foreign_magic_and_future_version_are_rejected() {
    let store = sample_store();
    let bytes = saved_bytes(&store, "magic");
    let mut wrong_magic = bytes.clone();
    wrong_magic[0..8].copy_from_slice(b"NOTASTOR");
    assert_rejected("magic", &wrong_magic, "bad magic");

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(STORE_FORMAT_VERSION_QUANT + 1).to_le_bytes());
    assert_rejected("version", &future, "unsupported store format version");
}

#[test]
fn header_length_lie_is_detected() {
    let store = sample_store();
    let bytes = saved_bytes(&store, "lenlie");
    let mut lied = bytes.clone();
    let fake_len = (bytes.len() as u64 - 24) + 100;
    lied[12..20].copy_from_slice(&fake_len.to_le_bytes());
    assert_rejected("lenlie", &lied, "length mismatch");
}

#[test]
fn missing_file_is_an_io_error_not_a_panic() {
    let err = EmbeddingStore::open(Path::new("/nonexistent/coane.store"))
        .expect_err("missing file must not load");
    assert_eq!(err.kind(), "io");
}

// ------------------------------------------------------------------------
// version-2 quantized payloads
// ------------------------------------------------------------------------

fn quantized_store(precision: Precision) -> EmbeddingStore {
    sample_store().with_precision(precision).expect("quantize fixture")
}

/// Patches payload bytes at `edit` offsets and recomputes the header's CRC
/// and length, producing a file that passes the checksum gate — for
/// reaching the structural validations *behind* the CRC.
fn patch_payload(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = bytes[24..].to_vec();
    edit(&mut payload);
    let mut out = bytes[..12].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[test]
fn quantized_roundtrip_preserves_everything() {
    let precision = Precision::Int8;
    let store = quantized_store(precision);
    let path = tmp_path(&format!("quant-roundtrip-{}", precision.name()));
    store.save(&path).expect("save");
    let loaded = EmbeddingStore::open(&path).expect("open");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.precision(), precision);
    assert_eq!(loaded.len(), store.len());
    assert_eq!(loaded.dim(), store.dim());
    assert_eq!(loaded.meta(), store.meta());
    assert_eq!(loaded.ids(), store.ids());
    // The exact f32 sidecar survives quantization bit-for-bit.
    assert_eq!(loaded.vectors(), store.vectors());
    assert_eq!(loaded.store_bytes(), store.store_bytes());
    assert!(loaded.store_bytes() < store.len() * store.dim() * 4);
}

#[test]
fn old_version_f32_stores_still_load() {
    // An f32 store writes format version 1 — the exact pre-quantization
    // bytes — and loads with precision f32.
    let store = sample_store();
    let bytes = saved_bytes(&store, "v1-compat");
    assert_eq!(&bytes[8..12], &1u32.to_le_bytes(), "f32 stores must stay on version 1");
    let path = tmp_path("v1-compat-load");
    std::fs::write(&path, &bytes).expect("write");
    let loaded = EmbeddingStore::open(&path).expect("v1 store must load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.precision(), Precision::F32);
    assert_eq!(loaded.vectors(), store.vectors());
}

#[test]
fn quantized_bit_flips_are_detected_everywhere() {
    // One flipped bit anywhere in a quantized payload — precision byte,
    // qparams, codes or sidecar — fails the CRC gate.
    let precision = Precision::Int8;
    let store = quantized_store(precision);
    let bytes = saved_bytes(&store, &format!("quant-bitflip-{}", precision.name()));
    for pos in (24..bytes.len()).step_by(97) {
        let mut dam = bytes.clone();
        dam[pos] ^= 0x10;
        assert_rejected(
            &format!("quant-bitflip-{}-{pos}", precision.name()),
            &dam,
            "CRC32 mismatch",
        );
    }
}

#[test]
fn quantized_truncation_is_detected_at_any_cut() {
    let precision = Precision::Int8;
    let store = quantized_store(precision);
    let bytes = saved_bytes(&store, &format!("quant-trunc-{}", precision.name()));
    let name = precision.name();
    assert_rejected(&format!("quant-trunc-header-{name}"), &bytes[..10], "too short");
    // Cuts landing mid-row in the code block and mid-sidecar.
    for cut in [bytes.len() - 3, bytes.len() - 8 * 4 - 1, 24 + 8 + 8 + 1 + 8 + 5] {
        assert_rejected(&format!("quant-trunc-{name}-{cut}"), &bytes[..cut], "length mismatch");
    }
}

#[test]
fn unknown_precision_byte_is_rejected() {
    // The precision byte sits right after the two u64 shape fields.
    let store = quantized_store(Precision::Int8);
    let bytes = saved_bytes(&store, "precision-byte");
    let patched = patch_payload(&bytes, |p| p[16] = 9);
    assert_rejected("precision-byte", &patched, "unknown precision byte 9");
    // Byte 1 tagged the f16 tables of earlier builds: still a typed error,
    // with the way forward in the message.
    let patched = patch_payload(&bytes, |p| p[16] = 1);
    assert_rejected("precision-byte-1", &patched, "f16 stores are no longer read");
}

#[test]
fn nonzero_int8_zero_point_is_rejected() {
    // qparams start after shape (16) + precision (1) + meta_len (8) + meta;
    // each row is (scale f32, zero_point f32) and the zero point is
    // reserved: any non-zero value is a format violation, CRC-valid or not.
    let store = quantized_store(Precision::Int8);
    let bytes = saved_bytes(&store, "zero-point");
    let meta_len = store.meta().len();
    let qparams_off = 16 + 1 + 8 + meta_len + store.len() * 8;
    let patched = patch_payload(&bytes, |p| {
        p[qparams_off + 4..qparams_off + 8].copy_from_slice(&0.25f32.to_le_bytes());
    });
    assert_rejected("zero-point", &patched, "non-zero int8 zero point");
}

#[test]
fn invalid_int8_scale_is_rejected() {
    let store = quantized_store(Precision::Int8);
    let bytes = saved_bytes(&store, "bad-scale");
    let meta_len = store.meta().len();
    let qparams_off = 16 + 1 + 8 + meta_len + store.len() * 8;
    for (tag, bad) in [("zero", 0.0f32), ("negative", -1.0), ("nan", f32::NAN)] {
        let patched = patch_payload(&bytes, |p| {
            p[qparams_off..qparams_off + 4].copy_from_slice(&bad.to_le_bytes());
        });
        assert_rejected(&format!("bad-scale-{tag}"), &patched, "invalid int8 scale");
    }
}

#[test]
fn f32_payload_under_quant_version_is_rejected() {
    // A v1 (f32) payload relabeled as version 2: the byte where the
    // precision tag should sit is the low byte of meta_len — decoding must
    // fail structurally, never reinterpret silently.
    let store = sample_store();
    let bytes = saved_bytes(&store, "relabel");
    let mut relabeled = bytes.clone();
    relabeled[8..12].copy_from_slice(&STORE_FORMAT_VERSION_QUANT.to_le_bytes());
    let relabeled = patch_payload(&relabeled, |_| {});
    let path = tmp_path("relabel");
    std::fs::write(&path, &relabeled).expect("write");
    let err = EmbeddingStore::open(&path).expect_err("relabeled store must not load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(err.kind(), "store");
    assert_eq!(err.exit_code(), 8);
}
