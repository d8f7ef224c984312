//! Model checkpointing.
//!
//! The training substrate needs a way to persist a trained (possibly
//! QAT-trained) network and reload it for the hardware experiments, mirroring
//! how the authors export snnTorch checkpoints into their RTL flow. Networks
//! serialise to a single JSON document containing the layer stack, the LIF
//! hyper-parameters and all weights.
//!
//! # Crash safety
//!
//! [`Checkpoint::save`] is atomic and durable: the document is written to a
//! temporary file in the target directory, fsynced, and renamed over the
//! destination (with a best-effort directory fsync), so a crash or power
//! loss mid-save leaves either the complete old checkpoint or the complete
//! new one — never a torn file. The on-disk format appends a fixed-size
//! trailer (`magic | payload length | CRC-64`) over the JSON payload;
//! [`Checkpoint::load`] verifies it and returns a typed [`SnnError`] — never
//! a panic — for truncated, bit-flipped or garbage files. The trailer is
//! mandatory for `load` (a bare-JSON file cannot be told apart from a
//! trailer'd file truncated at exactly the trailer boundary); documents
//! from other sources load explicitly via [`Checkpoint::from_json`].

use crate::error::SnnError;
use crate::network::SnnNetwork;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::Path;

/// Container persisted to disk: the network plus free-form metadata
/// (dataset name, precision, training configuration, accuracy, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version, bumped on breaking layout changes.
    pub version: u32,
    /// Free-form metadata recorded by the producer.
    pub metadata: std::collections::BTreeMap<String, String>,
    /// The network itself.
    pub network: SnnNetwork,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl Checkpoint {
    /// Wraps a network into a checkpoint.
    pub fn new(network: SnnNetwork) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            metadata: std::collections::BTreeMap::new(),
            network,
        }
    }

    /// Adds a metadata entry (builder style).
    #[must_use]
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Serialises the checkpoint to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::NumericalError`] if serialisation fails (which can
    /// only happen for non-finite floats with some serde configurations).
    pub fn to_json(&self) -> Result<String, SnnError> {
        serde_json::to_string(self)
            .map_err(|e| SnnError::numerical(format!("checkpoint serialisation failed: {e}")))
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the document is malformed or has
    /// an unsupported version.
    pub fn from_json(json: &str) -> Result<Self, SnnError> {
        let checkpoint: Checkpoint = serde_json::from_str(json)
            .map_err(|e| SnnError::config("checkpoint", format!("malformed checkpoint: {e}")))?;
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(SnnError::config(
                "version",
                format!(
                    "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                    checkpoint.version
                ),
            ));
        }
        Ok(checkpoint)
    }

    /// Writes the checkpoint to a file, atomically and durably.
    ///
    /// The bytes go to a temporary sibling file first, are fsynced, and the
    /// temp file is renamed over `path` (followed by a best-effort fsync of
    /// the directory). A crash at any point leaves either the previous
    /// checkpoint or the new one intact — never a partially-written file.
    /// The payload is framed with the [`TRAILER_MAGIC`] trailer carrying its
    /// length and CRC-64, which [`Checkpoint::load`] verifies.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnnError> {
        save_payload(path.as_ref(), self.to_json()?.as_bytes())
    }

    /// Reads and verifies a checkpoint from a file.
    ///
    /// Verification order: the [`TRAILER_MAGIC`] trailer is located and its
    /// declared payload length checked against the actual bytes (catching
    /// truncation), then the payload's CRC-64 is recomputed (catching any
    /// single-bit flip and virtually all larger corruptions), and only then
    /// is the JSON parsed. The trailer is mandatory: accepting bare JSON
    /// here would make a file truncated at exactly the trailer boundary
    /// undetectable. Plain JSON documents load via
    /// [`Checkpoint::from_json`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] — never panics — on I/O failure,
    /// truncation, checksum mismatch, malformed JSON or an unsupported
    /// version.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnnError> {
        let bytes = load_payload(path.as_ref())?;
        let json = std::str::from_utf8(&bytes)
            .map_err(|_| SnnError::config("checkpoint", "checkpoint payload is not valid UTF-8"))?;
        Self::from_json(json)
    }
}

/// Writes `payload` to `path` atomically and durably, framed with the
/// [`TRAILER_MAGIC`] integrity trailer (payload length + CRC-64) that
/// [`load_payload`] verifies.
///
/// This is the shared crash-safe persistence primitive: the bytes go to a
/// unique temporary sibling file first, are fsynced, and the temp file is
/// renamed over `path` (followed by a best-effort fsync of the directory), so
/// a crash or power loss at any point leaves either the previous file or the
/// complete new one — never a torn write. [`Checkpoint::save`] (model
/// checkpoints) and the training-state checkpoints of `snn-train` both ride
/// this path; the payload encoding is the caller's business.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] on I/O failure.
pub fn save_payload(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), SnnError> {
    let path = path.as_ref();
    // The trailer is written after the payload, so the payload is never
    // copied just to append 24 bytes.
    let mut trailer = [0_u8; TRAILER_LEN];
    trailer[..8].copy_from_slice(&TRAILER_MAGIC);
    trailer[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    trailer[16..].copy_from_slice(&crc64(payload).to_le_bytes());
    let io_err = |what: &str, e: std::io::Error| {
        SnnError::config(
            "path",
            format!("failed to {what} checkpoint {}: {e}", path.display()),
        )
    };
    // Unique temp name in the *same directory* (rename must not cross a
    // filesystem boundary). The process id + address entropy is enough:
    // the file exists only for the duration of this call.
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned());
    let tmp_name = format!(
        ".{}.tmp.{}",
        stem.unwrap_or_else(|| "checkpoint".to_string()),
        std::process::id(),
    );
    let tmp = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create temp for", e))?;
        file.write_all(payload).map_err(|e| io_err("write", e))?;
        file.write_all(&trailer).map_err(|e| io_err("write", e))?;
        // Durability point 1: the temp file's contents reach the disk
        // before the rename can make them visible under `path`.
        file.sync_all().map_err(|e| io_err("sync", e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| io_err("commit", e))?;
        // Durability point 2 (best effort): persist the directory entry
        // so the rename itself survives power loss. Not all platforms
        // support opening a directory for sync; failure is not fatal.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads a file written by [`save_payload`] and returns its verified payload.
///
/// Verification order: the [`TRAILER_MAGIC`] trailer is located and its
/// declared payload length checked against the actual bytes (catching
/// truncation), then the payload's CRC-64 is recomputed (catching any
/// single-bit flip and virtually all larger corruptions). Only then does the
/// caller get to parse the payload.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] — never panics — on I/O failure,
/// truncation or checksum mismatch.
pub fn load_payload(path: impl AsRef<Path>) -> Result<Vec<u8>, SnnError> {
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| {
        SnnError::config(
            "path",
            format!("failed to read checkpoint {}: {e}", path.display()),
        )
    })?;
    let payload = verify_trailer(&bytes)?;
    Ok(payload.to_vec())
}

/// Magic of the integrity trailer appended by [`Checkpoint::save`]:
/// `"SNCKPT01"`, bumped on trailer layout changes.
pub const TRAILER_MAGIC: [u8; 8] = *b"SNCKPT01";

/// Total trailer size: magic + payload length (u64 LE) + CRC-64 (u64 LE).
const TRAILER_LEN: usize = 8 + 8 + 8;

/// Splits `magic | payload_len | crc` off `bytes`, verifies both fields and
/// returns the payload slice.
fn verify_trailer(bytes: &[u8]) -> Result<&[u8], SnnError> {
    if bytes.len() < TRAILER_LEN || bytes[bytes.len() - TRAILER_LEN..][..8] != TRAILER_MAGIC {
        return Err(SnnError::config(
            "checkpoint",
            "not a checkpoint file: integrity trailer missing (plain JSON documents load via \
             Checkpoint::from_json)",
        ));
    }
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    let declared_len = u64::from_le_bytes(trailer[8..16].try_into().expect("8-byte slice"));
    let declared_crc = u64::from_le_bytes(trailer[16..24].try_into().expect("8-byte slice"));
    let actual_len = (bytes.len() - TRAILER_LEN) as u64;
    if declared_len != actual_len {
        return Err(SnnError::config(
            "checkpoint",
            format!(
                "checkpoint is truncated or padded: trailer declares {declared_len} payload \
                 bytes but {actual_len} are present"
            ),
        ));
    }
    let payload = &bytes[..bytes.len() - TRAILER_LEN];
    let actual_crc = crc64(payload);
    if declared_crc != actual_crc {
        return Err(SnnError::config(
            "checkpoint",
            format!(
                "checkpoint is corrupt: CRC-64 mismatch (stored {declared_crc:#018x}, \
                 computed {actual_crc:#018x})"
            ),
        ));
    }
    Ok(payload)
}

/// CRC-64/XZ (reflected, polynomial `0xC96C5795D7870F42`): detects every
/// single-bit flip and burst errors up to 64 bits, which is exactly the
/// integrity class checkpoint corruption tests exercise. Byte-at-a-time
/// with a lazily-built 256-entry table. Public so callers can fingerprint
/// their own payloads (e.g. the trainer's dataset fingerprint) with the
/// same checksum the checkpoint trailer uses.
pub fn crc64(bytes: &[u8]) -> u64 {
    use std::sync::OnceLock;
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    // Slice-by-8: table[0] is the classic byte-at-a-time table; table[k]
    // advances a byte's contribution k extra bytes through the register, so
    // eight input bytes fold in one step. Same polynomial, same values —
    // the reference check-value test pins the equivalence.
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut tables = [[0u64; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
            *entry = crc;
        }
        for k in 1..8 {
            let prev_row = tables[k - 1];
            let table0 = tables[0];
            for (entry, &prev) in tables[k].iter_mut().zip(prev_row.iter()) {
                *entry = (prev >> 8) ^ table0[usize::from(prev as u8)];
            }
        }
        tables
    });
    let mut crc = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ crc;
        crc = tables[7][usize::from(word as u8)]
            ^ tables[6][usize::from((word >> 8) as u8)]
            ^ tables[5][usize::from((word >> 16) as u8)]
            ^ tables[4][usize::from((word >> 24) as u8)]
            ^ tables[3][usize::from((word >> 32) as u8)]
            ^ tables[2][usize::from((word >> 40) as u8)]
            ^ tables[1][usize::from((word >> 48) as u8)]
            ^ tables[0][usize::from((word >> 56) as u8)];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][usize::from((crc ^ u64::from(byte)) as u8)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use crate::network::{vgg9, Vgg9Config};
    use crate::tensor::Tensor;

    fn sample_network() -> SnnNetwork {
        vgg9(&Vgg9Config::cifar10_small()).unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_network_behaviour() {
        let original = sample_network();
        let checkpoint = Checkpoint::new(original.clone())
            .with_metadata("dataset", "cifar10-small")
            .with_metadata("precision", "fp32");
        let json = checkpoint.to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap();
        assert_eq!(restored.metadata["dataset"], "cifar10-small");

        // The restored network must produce identical inference results.
        let restored_net = restored.network;
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.03).sin().abs());
        let a = original.run(&image, &Encoder::direct(2)).unwrap();
        let b = restored_net.run(&image, &Encoder::direct(2)).unwrap();
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn from_json_rejects_garbage_and_wrong_version() {
        assert!(Checkpoint::from_json("not json at all").is_err());
        let mut checkpoint = Checkpoint::new(sample_network());
        checkpoint.version = 999;
        let json = serde_json::to_string(&checkpoint).unwrap();
        assert!(Checkpoint::from_json(&json).is_err());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let dir = std::env::temp_dir().join("snn_dse_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let checkpoint = Checkpoint::new(sample_network()).with_metadata("k", "v");
        checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.metadata["k"], "v");
        assert_eq!(loaded.version, CHECKPOINT_VERSION);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_an_error() {
        assert!(Checkpoint::load("/nonexistent/path/model.json").is_err());
    }

    #[test]
    fn crc64_matches_the_reference_check_value() {
        // CRC-64/XZ check value for the ASCII bytes "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// Every single bit flip anywhere in a saved checkpoint — payload or
    /// trailer — must surface as a typed error (or, for trailer-magic
    /// flips, at worst a parse error via the legacy path), never a panic
    /// and never a silently-wrong network.
    #[test]
    fn bit_flips_are_detected_not_panics() {
        let dir = std::env::temp_dir().join("snn_dse_checkpoint_bitflip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        Checkpoint::new(sample_network())
            .with_metadata("k", "v")
            .save(&path)
            .unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert!(Checkpoint::load(&path).is_ok(), "pristine file loads");
        // Sample bit positions across the whole file (every byte would take
        // minutes on the large payload): front, back and a stride through
        // the middle, plus the entire trailer.
        let mut positions: Vec<usize> = (0..pristine.len()).step_by(997).collect();
        positions.extend(pristine.len().saturating_sub(TRAILER_LEN)..pristine.len());
        for pos in positions {
            for bit in [0u8, 3, 7] {
                let mut corrupt = pristine.clone();
                corrupt[pos] ^= 1 << bit;
                std::fs::write(&path, &corrupt).unwrap();
                assert!(
                    Checkpoint::load(&path).is_err(),
                    "flip at byte {pos} bit {bit} must be detected"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Truncation at any length — including cutting into or past the
    /// trailer — must be a typed error, never a panic.
    #[test]
    fn truncations_are_detected_not_panics() {
        let dir = std::env::temp_dir().join("snn_dse_checkpoint_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        Checkpoint::new(sample_network()).save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let mut cuts: Vec<usize> = (0..pristine.len()).step_by(1381).collect();
        // Every boundary near the trailer, plus the empty file.
        cuts.extend(pristine.len().saturating_sub(TRAILER_LEN + 2)..pristine.len());
        cuts.push(0);
        for cut in cuts {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                Checkpoint::load(&path).is_err(),
                "truncation to {cut} bytes must be detected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_files_are_typed_errors() {
        let dir = std::env::temp_dir().join("snn_dse_checkpoint_garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        for garbage in [
            &b"\x00\xFF\x13\x37 not a checkpoint"[..],
            &[0u8; 64][..],
            b"{\"version\": 1}", // JSON, but not a checkpoint
        ] {
            std::fs::write(&path, garbage).unwrap();
            assert!(Checkpoint::load(&path).is_err());
        }
        // A forged trailer over garbage: magic right, checksum wrong.
        let mut forged = b"garbage payload".to_vec();
        forged.extend_from_slice(&TRAILER_MAGIC);
        forged.extend_from_slice(&15_u64.to_le_bytes());
        forged.extend_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("CRC"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }

    /// Bare JSON (no trailer) is refused by `load` with an error pointing
    /// at `from_json` — accepting it would make truncation at exactly the
    /// trailer boundary undetectable — and `from_json` still parses it.
    #[test]
    fn bare_json_needs_the_explicit_from_json_path() {
        let dir = std::env::temp_dir().join("snn_dse_checkpoint_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let checkpoint = Checkpoint::new(sample_network()).with_metadata("era", "pre-trailer");
        std::fs::write(&path, checkpoint.to_json().unwrap()).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("trailer"), "got: {err}");
        let json = std::fs::read_to_string(&path).unwrap();
        let loaded = Checkpoint::from_json(&json).unwrap();
        assert_eq!(loaded.metadata["era"], "pre-trailer");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_files_and_overwrites_atomically() {
        let dir = std::env::temp_dir().join("snn_dse_checkpoint_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let first = Checkpoint::new(sample_network()).with_metadata("gen", "1");
        first.save(&path).unwrap();
        let second = Checkpoint::new(sample_network()).with_metadata("gen", "2");
        second.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().metadata["gen"], "2");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }
}
