//! The on-disk embedding store: a versioned, CRC-checked binary table of
//! node embeddings written once by the trainer/CLI and loaded read-only by
//! the server.
//!
//! ## File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"COANESTR"
//! 8       4     format version (u32 LE)
//! 12      8     payload length (u64 LE)
//! 20      4     CRC32 (IEEE) of the payload bytes (u32 LE)
//! 24      ...   payload
//! ```
//!
//! The **version 1** payload (full-precision f32, the default) is a flat
//! little-endian encoding:
//!
//! ```text
//! num_nodes u64 · dim u64 · meta_len u64 · meta (UTF-8 JSON, free-form)
//! ids       num_nodes × u64          (external id of each row, unique)
//! vectors   num_nodes × dim × f32    (row-major, fixed stride)
//! ```
//!
//! The **version 2** payload carries an int8 scoring table *plus* the
//! exact f32 rows as a sidecar — the sidecar is what the re-rank stage,
//! WAL fold and ground-truth scoring read, so quantization error can only
//! affect ANN candidate selection, never final scores:
//!
//! ```text
//! num_nodes u64 · dim u64 · precision u8 (2 = int8)
//! meta_len  u64 · meta (UTF-8 JSON, free-form)
//! ids       num_nodes × u64
//! qparams   num_nodes × (scale f32 · zero_point f32)   (the zero point
//!           is reserved and must be 0.0 — symmetric range)
//! codes     num_nodes × dim × i8
//! vectors   num_nodes × dim × f32                      (exact sidecar)
//! ```
//!
//! Precision byte 1 marked the f16 tables of earlier builds; f16 was
//! removed because int8 beat it on every measured axis at equal recall, so
//! such a store is rejected with a message to re-export it.
//!
//! f32 stores always write version 1 — byte-identical to every earlier
//! build — and this build reads both versions. Codes are a pure function
//! of the f32 row ([`coane_nn::qkernels`]), every writer maintains that
//! invariant, and the CRC covers codes and sidecar alike, so a decoded
//! table is trusted as-is.
//!
//! The layout is mmap-style: rows live at a fixed stride so row `i` is the
//! slice at `i*dim .. (i+1)*dim`, addressable without any per-row framing.
//! [`EmbeddingStore::open`] reads the file once, verifies length + CRC32,
//! and decodes the vector block into one contiguous `f32` buffer; all row
//! access after that ([`EmbeddingStore::row`], [`EmbeddingStore::vectors`])
//! is zero-copy borrowing into that buffer.
//!
//! Every malformed-file condition — wrong magic, unsupported version,
//! truncation, length or CRC mismatch, shape contradictions, duplicate
//! ids, bad precision byte, non-zero int8 zero point — surfaces a typed
//! [`CoaneError::Store`] (exit code 8) instead of a panic, mirroring the
//! checkpoint layer's treatment of untrusted input.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use coane_core::checkpoint::crc32;
use coane_error::{CoaneError, CoaneResult};
use coane_nn::qkernels::{self, Precision};
use coane_nn::Scorer;

/// Magic bytes identifying a CoANE embedding-store file.
pub const STORE_MAGIC: &[u8; 8] = b"COANESTR";
/// On-disk store format version for full-precision f32 stores.
pub const STORE_FORMAT_VERSION: u32 = 1;
/// On-disk store format version for quantized (int8) stores.
pub const STORE_FORMAT_VERSION_QUANT: u32 = 2;
/// Header size in bytes (magic + version + payload length + CRC32).
const HEADER_LEN: usize = 24;
/// Sanity bound on counts decoded from untrusted files.
const MAX_DECODE_ITEMS: u64 = 1 << 32;

/// Precision byte of the f16 tables earlier builds wrote; no longer read.
const PRECISION_BYTE_RETIRED: u8 = 1;
/// Precision byte in a version-2 payload for int8 codes.
const PRECISION_BYTE_INT8: u8 = 2;

/// The quantized scoring table riding alongside the exact f32 rows.
///
/// Per-row derived constants (int8 code sums-of-squares) are *not*
/// serialized — they are recomputed from the codes on load and on
/// every row mutation, so they can never drift from the codes.
#[derive(Debug)]
enum QuantTable {
    /// f32 store: no codes, scoring reads the exact rows directly.
    None,
    /// Symmetric int8 codes plus per-row scale and exact code sum-of-squares.
    Int8 { codes: Vec<i8>, scales: Vec<f32>, sumsqs: Vec<i32> },
}

/// A read-only embedding table: `num_nodes × dim` f32 vectors plus an
/// id ↔ row-index map, a free-form metadata string, and (for int8 stores)
/// a quantized scoring table kept in lock-step with the rows.
#[derive(Debug)]
pub struct EmbeddingStore {
    dim: usize,
    ids: Vec<u64>,
    index_of: HashMap<u64, u32>,
    vectors: Vec<f32>,
    meta: String,
    quant: QuantTable,
}

/// Clones `v` with its capacity, not just its length.
fn clone_with_capacity<T: Copy>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend_from_slice(v);
    out
}

impl Clone for QuantTable {
    fn clone(&self) -> Self {
        match self {
            Self::None => Self::None,
            Self::Int8 { codes, scales, sumsqs } => Self::Int8 {
                codes: clone_with_capacity(codes),
                scales: clone_with_capacity(scales),
                sumsqs: clone_with_capacity(sumsqs),
            },
        }
    }
}

/// Every mutation clones the store and appends to the clone
/// (`generation.rs`), so a clone keeps each table's spare capacity: the
/// append then fits without a reallocation, and successive clones of a
/// growing store request the same allocation size instead of one that
/// creeps up by a row each time. A size that keeps creeping past glibc's
/// dynamic mmap threshold gets a fresh `mmap` on every clone: on a
/// 10k×128 int8 store that cost ~600 page faults per upsert, against ~50
/// with the capacity kept.
impl Clone for EmbeddingStore {
    fn clone(&self) -> Self {
        let Self { dim, ids, index_of, vectors, meta, quant } = self;
        Self {
            dim: *dim,
            ids: clone_with_capacity(ids),
            index_of: index_of.clone(),
            vectors: clone_with_capacity(vectors),
            meta: meta.clone(),
            quant: quant.clone(),
        }
    }
}

impl EmbeddingStore {
    /// Builds an in-memory store from a flat row-major embedding. `ids[i]`
    /// is the external id of row `i`; pass `None` to use the identity
    /// mapping `id = row index`.
    ///
    /// Returns a [`CoaneError::Store`] if the shape is inconsistent, the
    /// store is empty, or ids repeat.
    pub fn new(
        embedding: Vec<f32>,
        dim: usize,
        ids: Option<Vec<u64>>,
        meta: impl Into<String>,
    ) -> CoaneResult<Self> {
        let store_err = |m: String| CoaneError::Store { path: None, message: m };
        if dim == 0 {
            return Err(store_err("embedding dimension must be positive".into()));
        }
        if !embedding.len().is_multiple_of(dim) {
            return Err(store_err(format!(
                "embedding length {} is not a multiple of dim {dim}",
                embedding.len()
            )));
        }
        let n = embedding.len() / dim;
        if n == 0 {
            return Err(store_err("store must hold at least one vector".into()));
        }
        let ids = ids.unwrap_or_else(|| (0..n as u64).collect());
        if ids.len() != n {
            return Err(store_err(format!("{} ids for {n} vectors", ids.len())));
        }
        let mut index_of = HashMap::with_capacity(n);
        for (i, &id) in ids.iter().enumerate() {
            if index_of.insert(id, i as u32).is_some() {
                return Err(store_err(format!("duplicate node id {id}")));
            }
        }
        Ok(Self {
            dim,
            ids,
            index_of,
            vectors: embedding,
            meta: meta.into(),
            quant: QuantTable::None,
        })
    }

    /// Re-encodes the scoring table at `precision`, rebuilding every code
    /// from the exact f32 rows (a pure function of the row bytes, so two
    /// stores with equal rows always quantize identically). `F32` drops
    /// any existing codes. The f32 sidecar is untouched either way.
    pub fn with_precision(mut self, precision: Precision) -> CoaneResult<Self> {
        if precision != Precision::F32 && self.dim > qkernels::MAX_QUANT_DIM {
            return Err(CoaneError::Store {
                path: None,
                message: format!(
                    "dimension {} exceeds the quantized-store cap {}",
                    self.dim,
                    qkernels::MAX_QUANT_DIM
                ),
            });
        }
        let n = self.len();
        self.quant = match precision {
            Precision::F32 => QuantTable::None,
            Precision::Int8 => {
                let mut codes = Vec::with_capacity(n * self.dim);
                let mut scales = Vec::with_capacity(n);
                let mut sumsqs = Vec::with_capacity(n);
                for r in 0..n {
                    let (row_codes, scale) = qkernels::quantize_i8_row(self.row(r));
                    scales.push(scale);
                    sumsqs.push(qkernels::sumsq_i8(&row_codes));
                    codes.extend(row_codes);
                }
                QuantTable::Int8 { codes, scales, sumsqs }
            }
        };
        Ok(self)
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store is empty (never true for a constructed store).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The free-form metadata string recorded at export time.
    pub fn meta(&self) -> &str {
        &self.meta
    }

    /// Embedding of row `index` — a zero-copy slice into the table.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn row(&self, index: usize) -> &[f32] {
        &self.vectors[index * self.dim..(index + 1) * self.dim]
    }

    /// The whole table as one row-major slice (zero-copy).
    pub fn vectors(&self) -> &[f32] {
        &self.vectors
    }

    /// External id of row `index`.
    pub fn id_of(&self, index: usize) -> u64 {
        self.ids[index]
    }

    /// All external ids in row order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Row index of external id, if present.
    pub fn index_of(&self, id: u64) -> Option<u32> {
        self.index_of.get(&id).copied()
    }

    /// The precision of the scoring table the ANN hot path reads.
    pub fn precision(&self) -> Precision {
        match self.quant {
            QuantTable::None => Precision::F32,
            QuantTable::Int8 { .. } => Precision::Int8,
        }
    }

    /// Bytes the ANN scoring path streams per full scan: the code table
    /// plus, for int8, the per-row quantization parameters. The exact f32
    /// sidecar is *not* counted — only the re-rank stage touches it, and
    /// only for `k·rerank_factor` rows per query.
    pub fn store_bytes(&self) -> usize {
        let n = self.len();
        match self.quant {
            QuantTable::None => n * self.dim * 4,
            QuantTable::Int8 { .. } => n * self.dim + n * 8,
        }
    }

    // ------------------------------------------------------------ mutation
    //
    // The store stays read-only from the outside; the generation layer
    // (`crate::generation`) is the only writer, and it maintains the
    // invariants these helpers assume (matching dimension, absent id).

    /// Overwrites the vector of `row` in place.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `v` has the wrong dimension.
    pub(crate) fn set_row(&mut self, row: usize, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "set_row dimension mismatch");
        self.vectors[row * self.dim..(row + 1) * self.dim].copy_from_slice(v);
        self.requantize_row(row, false);
    }

    /// Appends a new `(id, vector)` row at index `len()`.
    ///
    /// # Panics
    /// Panics if `id` is already present or `v` has the wrong dimension.
    pub(crate) fn push_row(&mut self, id: u64, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "push_row dimension mismatch");
        let row = self.ids.len() as u32;
        let prev = self.index_of.insert(id, row);
        assert!(prev.is_none(), "push_row duplicate id {id}");
        self.ids.push(id);
        self.vectors.extend_from_slice(v);
        self.requantize_row(row as usize, true);
    }

    /// Re-derives the quantized codes (and derived per-row constants) of
    /// one row from its freshly written f32 values, keeping the invariant
    /// `codes == quantize(sidecar rows)` across every mutation path.
    fn requantize_row(&mut self, row: usize, append: bool) {
        let dim = self.dim;
        match &mut self.quant {
            QuantTable::None => {}
            QuantTable::Int8 { codes, scales, sumsqs } => {
                let (row_codes, scale) =
                    qkernels::quantize_i8_row(&self.vectors[row * dim..(row + 1) * dim]);
                let sumsq = qkernels::sumsq_i8(&row_codes);
                if append {
                    codes.extend(row_codes);
                    scales.push(scale);
                    sumsqs.push(sumsq);
                } else {
                    codes[row * dim..(row + 1) * dim].copy_from_slice(&row_codes);
                    scales[row] = scale;
                    sumsqs[row] = sumsq;
                }
            }
        }
    }

    // ----------------------------------------------------------- scoring
    //
    // The ANN layers (`crate::hnsw`) score through probes so one code path
    // serves all precisions: an f32 probe reproduces `Scorer::score`
    // exactly (bit-identical to the pre-quantization behavior), and the
    // quantized probes go through the fused kernels in
    // `coane_nn::qkernels` with their ISA/thread determinism contract.

    /// Prepares a query vector for repeated scoring against this store's
    /// precision: quantizes it once (int8 codes) so the
    /// per-candidate cost in a graph traversal is a single fused kernel.
    ///
    /// # Panics
    /// Panics if `q` has the wrong dimension.
    pub(crate) fn probe_for_vector<'a>(&self, q: &'a [f32]) -> QuantProbe<'a> {
        assert_eq!(q.len(), self.dim, "probe dimension mismatch");
        match &self.quant {
            QuantTable::None => QuantProbe::F32(Cow::Borrowed(q)),
            QuantTable::Int8 { .. } => {
                let (codes, scale) = qkernels::quantize_i8_row(q);
                let sumsq = qkernels::sumsq_i8(&codes);
                QuantProbe::Int8 { codes: Cow::Owned(codes), scale, sumsq }
            }
        }
    }

    /// A probe carrying row `index`'s *own* stored representation — codes
    /// are borrowed, nothing is re-rounded — so row-vs-row scoring during
    /// index build, extension and WAL replay is an exact function of the
    /// stored codes (for int8, pure integer arithmetic end to end).
    pub(crate) fn probe_for_row(&self, index: usize) -> QuantProbe<'_> {
        match &self.quant {
            QuantTable::None => QuantProbe::F32(Cow::Borrowed(self.row(index))),
            QuantTable::Int8 { codes, scales, sumsqs } => QuantProbe::Int8 {
                codes: Cow::Borrowed(&codes[index * self.dim..(index + 1) * self.dim]),
                scale: scales[index],
                sumsq: sumsqs[index],
            },
        }
    }

    /// Scores a probe against one stored row (greater = more similar,
    /// matching [`Scorer::score`] orientation). For an f32 probe this *is*
    /// `scorer.score(q, row)`; quantized probes go through the fused
    /// kernels plus a fixed-order scalar combine.
    pub(crate) fn quant_score(&self, scorer: Scorer, probe: &QuantProbe<'_>, index: usize) -> f32 {
        let dim = self.dim;
        match (probe, &self.quant) {
            (QuantProbe::F32(q), _) => scorer.score(q, self.row(index)),
            (
                QuantProbe::Int8 { codes: q, scale, sumsq },
                QuantTable::Int8 { codes, scales, sumsqs },
            ) => {
                let row = &codes[index * dim..(index + 1) * dim];
                let mut idot = [0i32];
                qkernels::i8_dot_rows(row, q, dim, &mut idot);
                qkernels::combine_i8(scorer, idot[0], *scale, *sumsq, scales[index], sumsqs[index])
            }
            _ => unreachable!("probe precision does not match store precision"),
        }
    }

    /// Scores a probe against *every* row in one fused scan — the
    /// brute-force path for quantized stores. Parallel over row chunks on
    /// the workspace pool; each output element is a pure function of its
    /// (probe, row) pair, so the result is bit-identical at any thread
    /// count and ISA level.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`, or on an f32 probe (the f32
    /// brute-force path keeps its blocked matmul route in `crate::hnsw`).
    pub(crate) fn quant_scores_block(
        &self,
        scorer: Scorer,
        probe: &QuantProbe<'_>,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.len(), "quant_scores_block output length mismatch");
        let dim = self.dim;
        match (probe, &self.quant) {
            (
                QuantProbe::Int8 { codes: q, scale, sumsq },
                QuantTable::Int8 { codes, scales, sumsqs },
            ) => {
                let mut idots = vec![0i32; out.len()];
                qkernels::i8_dot_scan(codes, q, dim, &mut idots);
                for (((o, &d), &rs), &rss) in out.iter_mut().zip(&idots).zip(scales).zip(sumsqs) {
                    *o = qkernels::combine_i8(scorer, d, *scale, *sumsq, rs, rss);
                }
            }
            _ => unreachable!("quant_scores_block requires a quantized store and matching probe"),
        }
    }

    // ------------------------------------------------------------- on disk

    /// Serializes the store to `path` atomically: bytes go to a `.tmp`
    /// sibling which is fsynced then renamed into place, so a crash
    /// mid-write never leaves a half-written file under the final name.
    ///
    /// f32 stores write format version 1 — byte-identical to earlier
    /// builds — and quantized stores write version 2 with the code table
    /// ahead of the exact f32 sidecar.
    pub fn save(&self, path: &Path) -> CoaneResult<()> {
        let version = match self.quant {
            QuantTable::None => STORE_FORMAT_VERSION,
            _ => STORE_FORMAT_VERSION_QUANT,
        };
        let mut payload = Vec::with_capacity(
            4 * 8
                + 1
                + self.meta.len()
                + self.ids.len() * 8
                + self.vectors.len() * 4
                + self.store_bytes(),
        );
        payload.extend_from_slice(&(self.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(self.dim as u64).to_le_bytes());
        match &self.quant {
            QuantTable::None => {}
            QuantTable::Int8 { .. } => payload.push(PRECISION_BYTE_INT8),
        }
        payload.extend_from_slice(&(self.meta.len() as u64).to_le_bytes());
        payload.extend_from_slice(self.meta.as_bytes());
        for &id in &self.ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        match &self.quant {
            QuantTable::None => {}
            QuantTable::Int8 { codes, scales, .. } => {
                for &s in scales {
                    payload.extend_from_slice(&s.to_le_bytes());
                    payload.extend_from_slice(&0.0f32.to_le_bytes()); // reserved zero point
                }
                payload.extend(codes.iter().map(|&c| c as u8));
            }
        }
        for &v in &self.vectors {
            payload.extend_from_slice(&v.to_le_bytes());
        }

        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(STORE_MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        atomic_write_bytes(path, &bytes)
    }

    /// Loads a store written by [`EmbeddingStore::save`], verifying magic,
    /// version, payload length, CRC32 and structural shape. Any mismatch is
    /// a typed [`CoaneError::Store`].
    pub fn open(path: &Path) -> CoaneResult<Self> {
        let bytes = std::fs::read(path).map_err(|e| CoaneError::io(path, e))?;
        Self::decode(&bytes).map_err(|m| CoaneError::store(path, m))
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!("file too short for header: {} bytes", bytes.len()));
        }
        if &bytes[0..8] != STORE_MAGIC {
            return Err("bad magic: not a CoANE embedding store".into());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != STORE_FORMAT_VERSION && version != STORE_FORMAT_VERSION_QUANT {
            return Err(format!(
                "unsupported store format version {version} (this build reads versions \
                 {STORE_FORMAT_VERSION} and {STORE_FORMAT_VERSION_QUANT})"
            ));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        let actual_len = (bytes.len() - HEADER_LEN) as u64;
        if payload_len != actual_len {
            return Err(format!(
                "payload length mismatch: header says {payload_len}, file holds {actual_len} \
                 (truncated or padded file)"
            ));
        }
        let payload = &bytes[HEADER_LEN..];
        let actual_crc = crc32(payload);
        if actual_crc != stored_crc {
            return Err(format!(
                "CRC32 mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            ));
        }

        let mut cur = Cursor { bytes: payload, pos: 0 };
        let n = cur.take_u64()?;
        let dim = cur.take_u64()?;
        if n == 0 || dim == 0 || n > MAX_DECODE_ITEMS || dim > MAX_DECODE_ITEMS {
            return Err(format!("implausible shape: {n} × {dim}"));
        }
        let precision = if version == STORE_FORMAT_VERSION_QUANT {
            let b = cur.take_bytes(1, "precision byte")?[0];
            match b {
                PRECISION_BYTE_INT8 => Precision::Int8,
                PRECISION_BYTE_RETIRED => {
                    return Err("precision byte 1 marks an f16 store; f16 stores are no longer \
                                read, re-export the embedding with --precision int8 or f32"
                        .into())
                }
                other => return Err(format!("unknown precision byte {other}")),
            }
        } else {
            Precision::F32
        };
        let meta_len = cur.take_u64()?;
        let meta_bytes = cur.take_bytes(meta_len, "metadata")?;
        let meta = std::str::from_utf8(meta_bytes)
            .map_err(|_| "metadata is not valid UTF-8".to_string())?
            .to_string();
        let n = n as usize;
        let dim = dim as usize;
        if precision != Precision::F32 && dim > qkernels::MAX_QUANT_DIM {
            return Err(format!(
                "dimension {dim} exceeds the quantized-store cap {}",
                qkernels::MAX_QUANT_DIM
            ));
        }
        let id_bytes = cur.take_bytes(n as u64 * 8, "id table")?;
        let ids: Vec<u64> =
            id_bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        let count = n
            .checked_mul(dim)
            .ok_or_else(|| format!("vector block size overflows: {n} × {dim}"))?;

        // Quantized blocks precede the f32 sidecar. The CRC already vouches
        // for the bytes; codes are decoded as-is (every writer produces
        // them as a pure function of the f32 rows), and the per-row derived
        // constants are recomputed from the codes so they cannot drift.
        let quant = match precision {
            Precision::F32 => QuantTable::None,
            Precision::Int8 => {
                let qparam_bytes = cur.take_bytes(n as u64 * 8, "int8 qparam block")?;
                let mut scales = Vec::with_capacity(n);
                for (r, pair) in qparam_bytes.chunks_exact(8).enumerate() {
                    let scale = f32::from_le_bytes(pair[0..4].try_into().unwrap());
                    let zero = f32::from_le_bytes(pair[4..8].try_into().unwrap());
                    if !(scale.is_finite() && scale > 0.0) {
                        return Err(format!("row {r}: invalid int8 scale {scale}"));
                    }
                    if zero.to_bits() != 0 {
                        return Err(format!(
                            "row {r}: non-zero int8 zero point {zero} (reserved, must be 0.0)"
                        ));
                    }
                    scales.push(scale);
                }
                let code_bytes = cur.take_bytes(count as u64, "int8 code block")?;
                let codes: Vec<i8> = code_bytes.iter().map(|&b| b as i8).collect();
                let sumsqs =
                    (0..n).map(|r| qkernels::sumsq_i8(&codes[r * dim..(r + 1) * dim])).collect();
                QuantTable::Int8 { codes, scales, sumsqs }
            }
        };

        let vec_bytes = cur.take_bytes(count as u64 * 4, "vector block")?;
        let vectors: Vec<f32> =
            vec_bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        if cur.pos != payload.len() {
            return Err(format!("{} trailing bytes after vector block", payload.len() - cur.pos));
        }
        let mut store = Self::new(vectors, dim, Some(ids), meta).map_err(|e| e.to_string())?;
        store.quant = quant;
        Ok(store)
    }
}

/// A query prepared for repeated scoring against one store's precision:
/// the quantize-once half of every fused distance evaluation.
///
/// [`EmbeddingStore::probe_for_vector`] quantizes an external query;
/// [`EmbeddingStore::probe_for_row`] borrows a row's own stored codes so
/// row-vs-row scoring (index build, extension, WAL replay) never
/// re-rounds anything. `Cow` keeps the row path allocation-free for int8.
#[derive(Debug, Clone)]
pub(crate) enum QuantProbe<'a> {
    /// Full-precision query: scoring is exactly [`Scorer::score`].
    F32(Cow<'a, [f32]>),
    /// int8 route: query codes, scale, and exact code sum-of-squares.
    Int8 { codes: Cow<'a, [i8]>, scale: f32, sumsq: i32 },
}

/// Atomically replaces `path` with `bytes`: writes a `.tmp` sibling, fsyncs
/// it, then renames it into place, so a crash mid-write never leaves a
/// half-written file under the final name. Shared by the store writer and
/// the generation layer (`CURRENT` marker, mutation-log rotation).
pub(crate) fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> CoaneResult<()> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| CoaneError::io(&tmp, e))?;
    f.write_all(bytes).map_err(|e| CoaneError::io(&tmp, e))?;
    f.sync_all().map_err(|e| CoaneError::io(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| CoaneError::io(path, e))?;
    Ok(())
}

/// Bounds-checked little-endian reader over untrusted payload bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take_bytes(&mut self, len: u64, what: &str) -> Result<&'a [u8], String> {
        let remaining = (self.bytes.len() - self.pos) as u64;
        if len > remaining {
            return Err(format!("truncated payload: {what} wants {len} bytes, {remaining} left"));
        }
        let s = &self.bytes[self.pos..self.pos + len as usize];
        self.pos += len as usize;
        Ok(s)
    }

    fn take_u64(&mut self) -> Result<u64, String> {
        let b = self.take_bytes(8, "u64 field")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("coane_store_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> EmbeddingStore {
        let emb: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 3.0).collect();
        EmbeddingStore::new(emb, 4, Some(vec![7, 3, 11]), "{\"src\":\"unit\"}").unwrap()
    }

    #[test]
    fn row_access_and_id_map() {
        let s = sample();
        assert_eq!((s.len(), s.dim()), (3, 4));
        assert_eq!(s.row(1), &[-1.0, -0.5, 0.0, 0.5]);
        assert_eq!(s.id_of(2), 11);
        assert_eq!(s.index_of(3), Some(1));
        assert_eq!(s.index_of(99), None);
        assert_eq!(s.vectors().len(), 12);
    }

    #[test]
    fn duplicate_or_misshapen_inputs_rejected() {
        assert!(EmbeddingStore::new(vec![0.0; 8], 4, Some(vec![1, 1]), "").is_err());
        assert!(EmbeddingStore::new(vec![0.0; 7], 4, None, "").is_err());
        assert!(EmbeddingStore::new(vec![], 4, None, "").is_err());
        assert!(EmbeddingStore::new(vec![0.0; 8], 0, None, "").is_err());
        assert!(EmbeddingStore::new(vec![0.0; 8], 4, Some(vec![1]), "").is_err());
    }

    #[test]
    fn save_open_roundtrip_is_exact() {
        let s = sample();
        let path = tmp("roundtrip.store");
        s.save(&path).unwrap();
        let loaded = EmbeddingStore::open(&path).unwrap();
        assert_eq!(loaded.vectors(), s.vectors());
        assert_eq!(loaded.ids(), s.ids());
        assert_eq!(loaded.dim(), s.dim());
        assert_eq!(loaded.meta(), s.meta());
    }
}
