//! The one durable write path under the dataset journal and the budget
//! ledger: append-only, checksummed record logs ([`Log`]) and whole-file
//! replacement ([`replace`]).
//!
//! A log is a file of frames, each `[u32 len][u32 crc32][payload]`, both
//! integers little-endian, the CRC-32 taken over the payload alone, and no
//! payload empty. An append writes its frames with one write at the log's
//! committed length and one `sync_data`, and moves the committed length
//! only once the sync has returned. Any write or sync error truncates the
//! file back to the committed length before the error is returned, so a
//! refused append leaves no bytes. A new log's first frames go out in one
//! write, one file sync and one sync of the parent directory, which makes
//! the file's name durable too.
//!
//! Every append is synced before the next one starts, so a crash or a
//! power loss can tear only the final append. [`Log::open`] replays the
//! whole frames and cuts a torn final frame: one that is short, one that
//! ends at the end of the file with a bad checksum, or a zero-filled tail
//! (a file whose length reached the disk before its data did). A checksum
//! mismatch in a frame with more bytes after it is damage to synced data,
//! not a torn write, and the log is refused with the frame's offset. A
//! damaged length field that points past the end of the file cannot be
//! told from a torn final frame, and is cut as one.
//!
//! A replacement (the ledger's whole-file rewrite) writes the new bytes to
//! a sibling `.tmp` file, syncs it, renames it over the target and syncs
//! the parent directory. Without the file sync the rename could reach the
//! disk before the data, and without the directory sync the rename itself
//! could be lost, so a crash or a power loss at any instant leaves the
//! complete old file or the complete new one. Nothing reads a leftover
//! `.tmp` file; the next replacement overwrites it.
//!
//! Under fault injection an [`Injected`] fault ends one write at a
//! `PersistStep`, leaving the files as a `kill -9` at that instant would:
//! `CrashAt(Write)` before any byte, `ShortWrite` after half the bytes,
//! `CrashAt(Sync)` after all of them but before the sync, `CrashAt(Rename)`
//! (replacement only) before the rename, and `CrashAt(SyncDir)` (creation
//! and replacement) before the directory sync. `Fail` makes the sync
//! report an error, which takes the real rollback path.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::Path;

#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::{Fault, PersistStep};

/// Bytes of a frame header: the payload length, then its CRC-32.
pub(crate) const FRAME_HEADER: usize = 8;

/// The fault aimed at one durable write: a log write or a replacement.
/// Release builds have no fault injection, and the type is empty there.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Injected(#[cfg(any(test, feature = "fault-injection"))] pub(crate) Option<Fault>);

#[cfg(any(test, feature = "fault-injection"))]
impl Injected {
    /// Ends the write with an injected crash if the fault names `step`.
    fn before(self, step: PersistStep) -> io::Result<()> {
        match self.0 {
            Some(Fault::CrashAt(at)) if at == step => {
                Err(io::Error::other(InjectedCrash(format!("injected crash before {step:?}"))))
            }
            _ => Ok(()),
        }
    }
}

/// The error payload of an injected crash: the process is deemed dead, so
/// nothing after it cleans up.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug)]
struct InjectedCrash(String);

#[cfg(any(test, feature = "fault-injection"))]
impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(any(test, feature = "fault-injection"))]
impl std::error::Error for InjectedCrash {}

#[cfg(any(test, feature = "fault-injection"))]
fn is_crash(error: &io::Error) -> bool {
    error.get_ref().is_some_and(|e| e.is::<InjectedCrash>())
}

#[cfg(not(any(test, feature = "fault-injection")))]
fn is_crash(_: &io::Error) -> bool {
    false
}

/// Appends one frame to `out`, its payload written by `payload`.
///
/// # Errors
/// `InvalidInput` when the payload is empty or longer than `u32::MAX`
/// bytes; `out` is then as it was.
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    payload(out);
    let body = &out[start + FRAME_HEADER..];
    let Some(len) = u32::try_from(body.len()).ok().filter(|&len| len > 0) else {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a frame payload holds 1 to u32::MAX bytes",
        ));
    };
    let crc = crc32(body);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// An open log, positioned for appends. See the module docs.
#[derive(Debug)]
pub(crate) struct Log {
    file: File,
    /// Bytes known to hold whole, synced frames.
    len: u64,
    /// Set when a failed append could not cut its bytes (or an injected
    /// crash left them): the next append cuts the file to `len` first.
    dirty: bool,
}

impl Log {
    /// Creates the log at `path` holding `frames`, replacing any file
    /// there, and syncs the file and its directory entry.
    ///
    /// # Errors
    /// Any I/O error; the file is then removed.
    pub(crate) fn create(path: &Path, frames: &[u8], fault: Injected) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        let written = write_at(&file, 0, frames, fault).and_then(|()| {
            file.sync_all()?;
            sync_parent(path, fault)
        });
        match written {
            Ok(()) => Ok(Self { file, len: frames.len() as u64, dirty: false }),
            Err(e) => {
                if !is_crash(&e) {
                    let _ = file.set_len(0);
                    let _ = std::fs::remove_file(path);
                }
                Err(e)
            }
        }
    }

    /// Opens the log at `path`, hands each whole frame's payload to `visit`
    /// in order, and cuts a torn final frame.
    ///
    /// # Errors
    /// Any I/O error, and `InvalidData` for a damaged frame before the
    /// final one or a payload `visit` rejects, each naming the frame's
    /// offset.
    pub(crate) fn open(
        path: &Path,
        mut visit: impl FnMut(&[u8]) -> Result<(), String>,
    ) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        let mut at = 0;
        loop {
            let invalid = |e: String| {
                io::Error::new(io::ErrorKind::InvalidData, format!("frame at byte {at}: {e}"))
            };
            let Some(payload) = whole_frame(&bytes[at..]).map_err(invalid)? else { break };
            visit(payload).map_err(invalid)?;
            at += FRAME_HEADER + payload.len();
        }
        let file = OpenOptions::new().write(true).open(path)?;
        if at < bytes.len() {
            file.set_len(at as u64)?;
            file.sync_data()?;
        }
        Ok(Self { file, len: at as u64, dirty: false })
    }

    /// Appends `frames` and syncs them; on any error the log is cut back to
    /// its length before the call.
    ///
    /// # Errors
    /// Any I/O error.
    pub(crate) fn append(&mut self, frames: &[u8], fault: Injected) -> io::Result<()> {
        if self.dirty {
            self.file.set_len(self.len)?;
            self.dirty = false;
        }
        match write_at(&self.file, self.len, frames, fault).and_then(|()| self.file.sync_data()) {
            Ok(()) => {
                self.len += frames.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.dirty = is_crash(&e) || self.file.set_len(self.len).is_err();
                Err(e)
            }
        }
    }
}

/// Replaces the file at `path` with `bytes`: a sibling `.tmp` file is
/// written and synced, renamed over `path`, and the directory synced. See
/// the module docs.
///
/// # Errors
/// `Err` when the rename did not land: `path` is as it was, and a `.tmp`
/// file may be left. `Ok(Err)` when the rename landed but the directory
/// sync failed: `path` holds `bytes`, though a power loss may yet undo the
/// rename.
pub(crate) fn replace(path: &Path, bytes: &[u8], fault: Injected) -> io::Result<io::Result<()>> {
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp)?;
    write_at(&file, 0, bytes, fault)?;
    file.sync_all()?;
    drop(file);
    #[cfg(any(test, feature = "fault-injection"))]
    fault.before(PersistStep::Rename)?;
    std::fs::rename(&tmp, path)?;
    Ok(sync_parent(path, fault))
}

/// Writes `bytes` into `file` at offset `at`, then takes the injected
/// faults that come before their sync. Any cut is left to the caller.
fn write_at(mut file: &File, at: u64, bytes: &[u8], fault: Injected) -> io::Result<()> {
    #[cfg(any(test, feature = "fault-injection"))]
    fault.before(PersistStep::Write)?;
    file.seek(SeekFrom::Start(at))?;
    #[cfg(any(test, feature = "fault-injection"))]
    if fault.0 == Some(Fault::ShortWrite) {
        file.write_all(&bytes[..bytes.len() / 2])?;
        return Err(io::Error::other(InjectedCrash("injected crash mid-write".into())));
    }
    file.write_all(bytes)?;
    #[cfg(any(test, feature = "fault-injection"))]
    {
        fault.before(PersistStep::Sync)?;
        if fault.0 == Some(Fault::Fail) {
            return Err(io::Error::other("injected sync failure"));
        }
    }
    #[cfg(not(any(test, feature = "fault-injection")))]
    let _ = fault;
    Ok(())
}

/// The payload of the frame at the start of `rest`, or `None` where the
/// log ends: at its last byte, or at a torn final frame.
fn whole_frame(rest: &[u8]) -> Result<Option<&[u8]>, String> {
    let Some((header, tail)) = rest.split_first_chunk::<FRAME_HEADER>() else { return Ok(None) };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let stored = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let Some(payload) = tail.get(..len) else { return Ok(None) };
    let actual = crc32(payload);
    if len > 0 && actual == stored {
        return Ok(Some(payload));
    }
    if tail.len() == len || rest.iter().all(|&b| b == 0) {
        return Ok(None);
    }
    Err(format!(
        "damaged frame before the log's last (checksum {stored:08x}, payload hashes to \
         {actual:08x}); refusing to guess at the records after it"
    ))
}

/// Makes `path`'s directory entry durable.
fn sync_parent(path: &Path, fault: Injected) -> io::Result<()> {
    #[cfg(any(test, feature = "fault-injection"))]
    fault.before(PersistStep::SyncDir)?;
    #[cfg(not(any(test, feature = "fault-injection")))]
    let _ = fault;
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), one table lookup per byte.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The CRC of each byte value, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("privbayes-durable-{tag}-{}.log", std::process::id()))
    }

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            push_frame(&mut out, |o| o.extend_from_slice(p)).unwrap();
        }
        out
    }

    fn replay(path: &Path) -> io::Result<Vec<Vec<u8>>> {
        let mut seen = Vec::new();
        Log::open(path, |p| {
            seen.push(p.to_vec());
            Ok(())
        })?;
        Ok(seen)
    }

    #[test]
    fn frames_round_trip_and_torn_tails_are_cut() {
        let path = temp_path("torn");
        let mut log = Log::create(&path, &frames(&[b"head", b"one"]), Injected::default()).unwrap();
        log.append(&frames(&[b"two"]), Injected::default()).unwrap();
        drop(log);
        let whole = std::fs::read(&path).unwrap();
        assert_eq!(replay(&path).unwrap(), [b"head".to_vec(), b"one".to_vec(), b"two".to_vec()]);

        let last = whole.len() - (FRAME_HEADER + 3);
        for cut in last..whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            assert_eq!(replay(&path).unwrap().len(), 2, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), last as u64, "torn bytes go");
        }
        // A zero-filled tail and a final frame with a bad checksum are torn.
        let mut zeros = whole[..last].to_vec();
        zeros.resize(whole.len() + 5, 0);
        std::fs::write(&path, &zeros).unwrap();
        assert_eq!(replay(&path).unwrap().len(), 2);
        let mut flipped = whole.clone();
        *flipped.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(replay(&path).unwrap().len(), 2);
        // A damaged frame with more after it is refused.
        let mut flipped = whole.clone();
        flipped[FRAME_HEADER] ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        let err = replay(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame at byte 0"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_sync_leaves_no_bytes() {
        let path = temp_path("fail");
        let mut log = Log::create(&path, &frames(&[b"head"]), Injected::default()).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert!(log.append(&frames(&[b"lost"]), Injected(Some(Fault::Fail))).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        log.append(&frames(&[b"kept"]), Injected::default()).unwrap();
        assert_eq!(replay(&path).unwrap(), [b"head".to_vec(), b"kept".to_vec()]);

        // A failed first write leaves no file.
        let _ = std::fs::remove_file(&path);
        assert!(Log::create(&path, &frames(&[b"head"]), Injected(Some(Fault::Fail))).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn an_append_after_an_injected_crash_cuts_the_leftover_bytes() {
        let path = temp_path("crash");
        let mut log = Log::create(&path, &frames(&[b"head"]), Injected::default()).unwrap();
        let fault = Injected(Some(Fault::CrashAt(PersistStep::Sync)));
        assert!(log.append(&frames(&[b"a much longer unsynced record"]), fault).is_err());
        log.append(&frames(&[b"short"]), Injected::default()).unwrap();
        assert_eq!(replay(&path).unwrap(), [b"head".to_vec(), b"short".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_payloads_are_refused() {
        let mut out = vec![7];
        assert!(push_frame(&mut out, |_| {}).is_err());
        assert_eq!(out, [7]);
    }
}
