//! Atomic, checksummed engine checkpoints (DESIGN.md §12, level 2).
//!
//! One checkpoint file holds the full serialized engine state of one
//! in-flight cell simulation (`MultiCore::save_state`). Files are
//! written crash-safely — payload to a temporary sibling, `sync_data`,
//! then an atomic rename — so a SIGKILL at any instant leaves either
//! the previous intact checkpoint or the new one, never a torn file.
//! Readers validate a magic tag, a length field and an FNV-1a checksum;
//! anything invalid reads as "no checkpoint" and the cell recomputes
//! from scratch (correct, just slower).

use std::io::Write;
use std::path::{Path, PathBuf};

use tlpsim_mem::fnv1a64;

/// Leading magic of a checkpoint file; bump the trailing digit on any
/// layout change.
pub const CKPT_MAGIC: &[u8; 8] = b"TLPSCK1\n";

/// Why a checkpoint could not be written or read. Callers that only
/// care about "usable or not" keep using [`read_validated`]; callers
/// that must *report* (the serve supervisor's diagnostics, the failure-
/// path tests) get the distinction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file does not exist.
    Missing,
    /// An I/O failure (open, read, write, sync, rename), rendered.
    Io(String),
    /// The file exists but does not start with [`CKPT_MAGIC`] — a
    /// foreign or garbage file, not a torn checkpoint.
    ForeignFile,
    /// Magic is right but length or checksum do not verify: a torn
    /// write or bit rot.
    ChecksumMismatch,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Missing => write!(f, "no checkpoint file"),
            CkptError::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
            CkptError::ForeignFile => write!(f, "not a tlpsim checkpoint file"),
            CkptError::ChecksumMismatch => {
                write!(f, "checkpoint is torn or corrupt (checksum mismatch)")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Write `payload` to `path` atomically: temp sibling + `sync_data` +
/// rename. The header is `CKPT_MAGIC`, the payload's FNV-1a checksum
/// and its length (both little-endian u64).
///
/// # Errors
/// Any I/O failure; the destination is untouched in that case, and the
/// temporary sibling is cleaned up so a failed write does not leave
/// debris that a later write would trip over.
pub fn write_atomic(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let staged = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(CKPT_MAGIC)?;
        f.write_all(&fnv1a64(payload).to_le_bytes())?;
        f.write_all(&(payload.len() as u64).to_le_bytes())?;
        f.write_all(payload)?;
        // Durability point: the rename below must never publish a file
        // whose data blocks are still in flight.
        f.sync_data()
    })();
    let result = staged.and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        // Best effort: the staging file is ours alone; the previous
        // checkpoint at `path` is already known to be untouched.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Read a checkpoint back, returning the payload only if the magic,
/// length and checksum all verify. `None` means "no usable checkpoint"
/// — missing file, foreign file, torn or bit-rotted content alike.
pub fn read_validated(path: &Path) -> Option<Vec<u8>> {
    load(path).ok()
}

/// [`read_validated`] with the failure reason preserved.
///
/// # Errors
/// [`CkptError`] describing exactly why the checkpoint is unusable;
/// the file is never modified by a failed load.
pub fn load(path: &Path) -> Result<Vec<u8>, CkptError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CkptError::Missing),
        Err(e) => return Err(CkptError::Io(e.to_string())),
    };
    let head = CKPT_MAGIC.len();
    let prefix = head.min(bytes.len());
    if bytes[..prefix] != CKPT_MAGIC[..prefix] {
        return Err(CkptError::ForeignFile);
    }
    if bytes.len() < head + 16 {
        return Err(CkptError::ChecksumMismatch); // torn inside the header
    }
    let sum = u64::from_le_bytes(bytes[head..head + 8].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[head + 8..head + 16].try_into().expect("8 bytes"));
    let payload = &bytes[head + 16..];
    if payload.len() as u64 != len || fnv1a64(payload) != sum {
        return Err(CkptError::ChecksumMismatch);
    }
    Ok(payload.to_vec())
}

/// The temporary sibling a checkpoint is staged in before the rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tlpsim-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trip_and_overwrite() {
        let dir = tmp_dir("rt");
        let p = dir.join("cell.ckpt");
        assert_eq!(read_validated(&p), None, "missing file reads as none");
        write_atomic(&p, b"first state").unwrap();
        assert_eq!(read_validated(&p).unwrap(), b"first state");
        write_atomic(&p, b"second state").unwrap();
        assert_eq!(read_validated(&p).unwrap(), b"second state");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_reads_as_none() {
        let dir = tmp_dir("bad");
        let p = dir.join("cell.ckpt");
        write_atomic(&p, b"some serialized engine state").unwrap();
        let good = std::fs::read(&p).unwrap();

        // Truncation anywhere: header, checksum, payload.
        for cut in [0, 4, CKPT_MAGIC.len() + 7, good.len() - 1] {
            std::fs::write(&p, &good[..cut]).unwrap();
            assert_eq!(read_validated(&p), None, "truncated to {cut} bytes");
        }
        // One flipped payload byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        std::fs::write(&p, &bad).unwrap();
        assert_eq!(read_validated(&p), None, "bit flip accepted");
        // A foreign file.
        std::fs::write(&p, b"not a checkpoint at all").unwrap();
        assert_eq!(read_validated(&p), None, "foreign file accepted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
