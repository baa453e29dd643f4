//! One append-only framed log (DESIGN.md §7, §12, §16).
//!
//! The result cache ([`crate::diskcache`]), the sweep journal
//! ([`crate::journal`]) and the daemon's job queue
//! ([`crate::daemon::QueueFile`]) are the same kind of file: one header
//! line, then one framed record per line. `FramedLog` owns what they
//! share; each owner keeps only its header policy and its record
//! decoding.
//!
//! * **replay** — every line up to the first bad one is handed to the
//!   owner straight from one read buffer. A line is bad when it has no
//!   terminator (a torn final write), is not UTF-8, or fails its length
//!   or checksum;
//! * **torn-tail repair** — the file is truncated back to the end of
//!   the last intact line, so a crash mid-append costs that one record;
//! * **append** — one framed line per `write_all`, then `sync_data` for
//!   a synced log (the journal and the queue) or a flush (the cache);
//! * **locking** — the kernel's exclusive lock on the log file itself
//!   ([`File::lock`]), held for one replay or one append, so processes
//!   sharing a log never interleave partial records. The kernel drops
//!   the lock of a holder that dies, so nothing is ever stolen or
//!   waited out.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Mutex;

use tlpsim_mem::fnv1a64;

use crate::executor::lock_unpoisoned;

/// Frame an arbitrary payload as one checksummed line (newline
/// included): `<fnv1a64-hex> <len> <payload>\n`. This framing is shared
/// by the three logs and by the supervisor↔worker and daemon↔client
/// protocols ([`crate::net`]) — one torn-write detector for all of
/// them. Inverse of [`unframe`].
pub fn frame_payload(payload: &str) -> String {
    format!(
        "{:016x} {} {payload}\n",
        fnv1a64(payload.as_bytes()),
        payload.len()
    )
}

/// Parse one framed line (without trailing newline) back into its
/// payload, verifying length and checksum.
pub fn unframe(line: &str) -> Result<&str, String> {
    let (sum, rest) = line.split_once(' ').ok_or("missing checksum field")?;
    let (len, payload) = rest.split_once(' ').ok_or("missing length field")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| format!("bad checksum {sum:?}"))?;
    let len: usize = len.parse().map_err(|_| format!("bad length {len:?}"))?;
    if payload.len() != len {
        return Err(format!(
            "length mismatch: frame says {len}, got {}",
            payload.len()
        ));
    }
    let actual = fnv1a64(payload.as_bytes());
    if actual != sum {
        return Err(format!(
            "checksum mismatch: frame says {sum:016x}, got {actual:016x}"
        ));
    }
    Ok(payload)
}

/// What replaying a log found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records the owner accepted.
    pub replayed: usize,
    /// Intact records the owner rejected (malformed or foreign); they
    /// stay on disk.
    pub rejected: usize,
    /// Byte offset a torn or corrupt tail was truncated to, if that
    /// happened.
    pub truncated_at: Option<u64>,
    /// The file was started under a new header (it was new or empty,
    /// or its owner discarded it).
    pub fresh: bool,
}

/// What an append waits for before it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Durability {
    /// `sync_data`: the record survives power loss. The journal and the
    /// queue are the only copies of what they hold.
    Synced,
    /// A flush: a lost cache record is simply re-simulated.
    Flushed,
}

/// An open framed log, positioned for appends.
#[derive(Debug)]
pub(crate) struct FramedLog {
    file: Mutex<File>,
    durability: Durability,
}

impl FramedLog {
    /// Open the log at `path` and replay it, holding the file's lock
    /// throughout.
    ///
    /// `head` judges the first line (`None` when there is no complete
    /// UTF-8 one). `Ok(true)`, which only a complete line may get,
    /// keeps the file and hands each intact payload to `record`, which
    /// answers whether it accepts it. `Ok(false)` starts the file fresh
    /// under `header`, and `Err` refuses the file untouched. An empty
    /// file starts fresh without asking. With a `header`, a missing file
    /// and its directory are created; without one, the file must exist
    /// and cannot start fresh.
    ///
    /// # Errors
    /// Any I/O failure, a failed lock included, and `head`'s refusal.
    pub(crate) fn open(
        path: &Path,
        header: Option<&str>,
        durability: Durability,
        head: impl FnOnce(Option<&str>) -> Result<bool, String>,
        mut record: impl FnMut(&str) -> bool,
    ) -> io::Result<(FramedLog, ReplayReport)> {
        if let (Some(_), Some(dir)) = (header, path.parent()) {
            std::fs::create_dir_all(dir)?;
        }
        // O_APPEND: every write lands at the end, wherever another
        // handle left it.
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(header.is_some())
            .open(path)?;
        file.lock()?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let first = buf
            .iter()
            .position(|&b| b == b'\n')
            .and_then(|nl| std::str::from_utf8(&buf[..nl]).ok());

        let mut report = ReplayReport::default();
        if !buf.is_empty() && head(first).map_err(io::Error::other)? {
            let mut end = first.map_or(0, |h| h.len() + 1);
            for line in buf[end..].split_inclusive(|&b| b == b'\n') {
                let payload = line
                    .strip_suffix(b"\n")
                    .and_then(|l| std::str::from_utf8(l).ok())
                    .and_then(|l| unframe(l).ok());
                let Some(payload) = payload else {
                    report.truncated_at = Some(end as u64);
                    file.set_len(end as u64)?;
                    break;
                };
                if record(payload) {
                    report.replayed += 1;
                } else {
                    report.rejected += 1;
                }
                end += line.len();
            }
        } else {
            let header = header.ok_or_else(|| io::Error::other("no complete header line"))?;
            file.set_len(0)?;
            file.write_all(format!("{header}\n").as_bytes())?;
            if durability == Durability::Synced {
                file.sync_data()?;
            }
            report.fresh = true;
        }
        file.unlock()?;
        let log = FramedLog {
            file: Mutex::new(file),
            durability,
        };
        Ok((log, report))
    }

    /// Append one framed record with a single `write_all` under the
    /// file's lock, then wait for it per the log's [`Durability`].
    ///
    /// # Errors
    /// Any I/O failure, a failed lock included. The lock is released
    /// either way.
    pub(crate) fn append(&self, payload: &str) -> io::Result<()> {
        let line = frame_payload(payload);
        let mut f = lock_unpoisoned(&self.file);
        f.lock()?;
        let written = f.write_all(line.as_bytes()).and_then(|()| {
            if self.durability == Durability::Synced {
                f.sync_data()
            } else {
                f.flush()
            }
        });
        f.unlock().and(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_payload_round_trips() {
        let line = frame_payload("HELLO 1234 1");
        assert!(line.ends_with('\n'));
        assert_eq!(unframe(line.trim_end()).unwrap(), "HELLO 1234 1");
    }

    #[test]
    fn append_waits_while_another_handle_holds_the_lock() {
        let dir = std::env::temp_dir().join(format!("tlpsim-framedlog-{}", std::process::id()));
        let p = dir.join("test.log");
        let _ = std::fs::remove_file(&p);
        let open = || {
            let mut payloads = Vec::new();
            let log = FramedLog::open(
                &p,
                Some("H"),
                Durability::Flushed,
                |_| Ok(true),
                |r| {
                    payloads.push(r.to_string());
                    true
                },
            );
            (log.unwrap().0, payloads)
        };
        let (log, _) = open();
        let before = std::fs::metadata(&p).unwrap().len();
        let holder = File::open(&p).unwrap();
        holder.lock().unwrap();
        std::thread::scope(|s| {
            let append = s.spawn(|| log.append("late").unwrap());
            // However long the append thread takes to reach the lock, it
            // cannot finish while `holder` holds it.
            std::thread::sleep(std::time::Duration::from_millis(200));
            assert!(!append.is_finished(), "append must wait for the lock");
            assert_eq!(std::fs::metadata(&p).unwrap().len(), before);
            drop(holder);
            append.join().unwrap();
        });
        drop(log);
        assert_eq!(
            open().1,
            ["late"],
            "the append completes once the lock drops"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
