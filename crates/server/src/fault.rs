//! Deterministic fault injection for the serving tier.
//!
//! A [`FaultPlan`] is a step-indexed schedule of faults: every injection
//! *site* (ledger persistence, dataset-log writes, connection reads,
//! connection writes, request handlers) keeps a monotonically increasing
//! operation counter, and a rule fires when its site's counter reaches the
//! rule's step. Plans are either
//! built explicitly ([`FaultPlan::inject`]) for kill-at-every-step style
//! tests, or sampled from a seed ([`FaultPlan::seeded`]) for randomized
//! chaos storms that are nevertheless reproducible run to run.
//!
//! The whole module — and every hook that consults it in `ledger`,
//! `durable`, `ingest`, `server`, and `http` — only exists under
//! `#[cfg(any(test, feature = "fault-injection"))]`. A release build
//! (`cargo build --release`) contains none of it: the hooks are not
//! "cheap", they are *absent*.
//!
//! Faults model three distinct failure families:
//!
//! * **Process death** during ledger or dataset-log persistence
//!   ([`Fault::CrashAt`], [`Fault::ShortWrite`]): the persist sequence
//!   stops at the named [`PersistStep`], leaving the on-disk state exactly
//!   as a `kill -9` at that instant would. Tests then "restart" by
//!   re-opening the ledger or the data directory.
//! * **Network pathology** on connection IO ([`Fault::Reset`],
//!   [`Fault::ShortWrite`], [`Fault::DelayMs`]): the wrapped stream
//!   ([`FaultStream`]) errors, truncates, or stalls — the server must
//!   degrade per-connection, never server-wide.
//! * **Code defects** in handlers ([`Fault::Panic`]): a forced panic inside
//!   request handling — the connection's thread must isolate it, answer a
//!   structured 500 when possible, and free its slot.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::splitmix64;

/// Where a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One rewrite of the [`crate::BudgetLedger`] file (one counter tick
    /// per persist call; faults name a [`PersistStep`] inside it). It goes
    /// through the same write, sync and directory-sync code as a
    /// [`FaultSite::DatasetPersist`] write.
    LedgerPersist,
    /// One `read` call on a connection's socket.
    ConnRead,
    /// One `write` call on a connection's socket.
    ConnWrite,
    /// One request dispatched to a handler.
    Handler,
    /// One write to a tenant's dataset log: a batch or refit frame, or the
    /// header and first batch that create the file (faults name a
    /// [`PersistStep`] inside it).
    DatasetPersist,
}

const SITES: [FaultSite; 5] = [
    FaultSite::LedgerPersist,
    FaultSite::ConnRead,
    FaultSite::ConnWrite,
    FaultSite::Handler,
    FaultSite::DatasetPersist,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::LedgerPersist => 0,
            FaultSite::ConnRead => 1,
            FaultSite::ConnWrite => 2,
            FaultSite::Handler => 3,
            FaultSite::DatasetPersist => 4,
        }
    }
}

/// A step inside a persist sequence; [`Fault::CrashAt`] aborts the sequence
/// immediately before the named step.
///
/// Both persisters write through one sequence. The ledger replaces its
/// whole file: it writes a sibling temp file (`Write`), `fsync`s it
/// (`Sync`), renames it over the target (`Rename`) and `fsync`s the parent
/// directory (`SyncDir`). A dataset-log append writes its frames at the
/// end of the log (`Write`) and `fsync`s them (`Sync`); the append that
/// creates a tenant's log then `fsync`s the directory (`SyncDir`).
/// [`Fault::ShortWrite`] covers death in the middle of a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistStep {
    /// Writing the ledger's temp file, or a log's frames: the file is
    /// open and none of the bytes is written.
    Write,
    /// `fsync` of what was written.
    Sync,
    /// The ledger's atomic rename over its target.
    Rename,
    /// `fsync` of the parent directory (makes a rename or a new file's
    /// name durable).
    SyncDir,
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Report a clean I/O error (exercises rollback paths). On persistence
    /// the sync of the written bytes fails and the real rollback runs: a
    /// dataset log is cut back to its committed length, and the ledger
    /// undoes its mutation, leaving its file as it was.
    Fail,
    /// Write roughly half the bytes, then die. On the ledger this tears the
    /// temp file, on a dataset log the final frame; on a connection it
    /// truncates the response mid-stream.
    ShortWrite,
    /// Persistence only: abort the persist sequence immediately before
    /// `step`, as a `kill -9` at that instant would.
    CrashAt(PersistStep),
    /// Connection IO only: stall this operation for the given milliseconds
    /// before letting it proceed (slow peer / slow disk).
    DelayMs(u64),
    /// Connection IO only: fail with `ConnectionReset`; every later
    /// operation on the same stream fails too (the peer is gone).
    Reset,
    /// Handler only: panic with a recognizable payload.
    Panic,
}

/// One scheduled fault: fire at the `step`-th operation (0-based) on
/// `site`.
#[derive(Debug, Clone, Copy)]
struct Rule {
    site: FaultSite,
    step: u64,
    fault: Fault,
}

/// A seeded, step-indexed schedule of faults (see the module docs). Cheap
/// to share: wrap in an [`Arc`] and hand clones to the server, the ledger,
/// and the test driver.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
    counters: [AtomicU64; 5],
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (injects nothing until rules are added).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` for the `step`-th operation (0-based) at `site`.
    #[must_use]
    pub fn inject(mut self, site: FaultSite, step: u64, fault: Fault) -> Self {
        self.rules.push(Rule { site, step, fault });
        self
    }

    /// A reproducible random schedule: for each site listed in `faults`,
    /// each of the first `horizon` steps independently receives the
    /// site's fault with probability `percent`/100, driven by a SplitMix64
    /// stream over `seed` alone — the same seed always yields the same
    /// storm.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64, percent: u64, faults: &[(FaultSite, Fault)]) -> Self {
        let mut plan = Self::new();
        let mut state = seed;
        for &(site, fault) in faults {
            for step in 0..horizon {
                if splitmix64(&mut state) % 100 < percent {
                    plan = plan.inject(site, step, fault);
                }
            }
        }
        plan
    }

    /// Advances `site`'s operation counter and returns the fault scheduled
    /// for this step, if any. Thread-safe; every call consumes exactly one
    /// step.
    pub fn take(&self, site: FaultSite) -> Option<Fault> {
        let step = self.counters[site.index()].fetch_add(1, Ordering::SeqCst);
        let hit = self.rules.iter().find(|r| r.site == site && r.step == step).map(|r| r.fault);
        if hit.is_some() {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        hit
    }

    /// How many faults have actually fired so far (a storm test can assert
    /// it exercised something).
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// The number of operations seen so far at `site`.
    #[must_use]
    pub fn steps_seen(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::SeqCst)
    }

    /// Total number of scheduled rules across all sites.
    #[must_use]
    pub fn scheduled(&self) -> usize {
        self.rules.len()
    }

    /// The sites this plan can inject at (fixed; exposed for diagnostics).
    #[must_use]
    pub fn sites() -> [FaultSite; 5] {
        SITES
    }
}

/// A connection stream with faults injected per the plan: each `read` /
/// `write` call consumes one [`FaultSite::ConnRead`] /
/// [`FaultSite::ConnWrite`] step. After a [`Fault::Reset`] or
/// [`Fault::ShortWrite`] the stream is dead: every later operation fails,
/// as it would on a torn TCP connection.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    plan: Option<Arc<FaultPlan>>,
    dead: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`; a `None` plan passes everything through untouched.
    pub fn new(inner: S, plan: Option<Arc<FaultPlan>>) -> Self {
        Self { inner, plan, dead: false }
    }

    fn reset_err() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(Self::reset_err());
        }
        match self.plan.as_ref().and_then(|p| p.take(FaultSite::ConnRead)) {
            Some(Fault::DelayMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Reset | Fault::ShortWrite) => {
                self.dead = true;
                return Err(Self::reset_err());
            }
            Some(Fault::Fail) => {
                return Err(std::io::Error::other("injected read failure"));
            }
            _ => {}
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(Self::reset_err());
        }
        match self.plan.as_ref().and_then(|p| p.take(FaultSite::ConnWrite)) {
            Some(Fault::DelayMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Reset) => {
                self.dead = true;
                return Err(Self::reset_err());
            }
            Some(Fault::ShortWrite) => {
                // Half the bytes reach the peer, then the connection dies —
                // the classic truncated-response shape.
                let half = (buf.len() / 2).max(1).min(buf.len());
                let _ = self.inner.write(&buf[..half]);
                let _ = self.inner.flush();
                self.dead = true;
                return Err(Self::reset_err());
            }
            Some(Fault::Fail) => {
                return Err(std::io::Error::other("injected write failure"));
            }
            _ => {}
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(Self::reset_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_consumed_in_order() {
        let plan = FaultPlan::new().inject(FaultSite::Handler, 1, Fault::Panic).inject(
            FaultSite::ConnWrite,
            0,
            Fault::Reset,
        );
        assert_eq!(plan.take(FaultSite::Handler), None, "step 0 is clean");
        assert_eq!(plan.take(FaultSite::Handler), Some(Fault::Panic), "step 1 fires");
        assert_eq!(plan.take(FaultSite::Handler), None, "step 2 is clean again");
        assert_eq!(plan.take(FaultSite::ConnWrite), Some(Fault::Reset));
        assert_eq!(plan.fired(), 2);
        assert_eq!(plan.steps_seen(FaultSite::Handler), 3);
        assert_eq!(plan.steps_seen(FaultSite::LedgerPersist), 0, "sites are independent");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let sites = [(FaultSite::Handler, Fault::Panic), (FaultSite::ConnWrite, Fault::Reset)];
        let a = FaultPlan::seeded(7, 100, 30, &sites);
        let b = FaultPlan::seeded(7, 100, 30, &sites);
        let c = FaultPlan::seeded(8, 100, 30, &sites);
        let fires = |plan: &FaultPlan| -> Vec<(usize, bool)> {
            (0..100)
                .map(|_| plan.take(FaultSite::Handler).is_some())
                .enumerate()
                .filter(|&(_, hit)| hit)
                .collect()
        };
        let (fa, fb, fc) = (fires(&a), fires(&b), fires(&c));
        assert_eq!(fa, fb, "same seed, same storm");
        assert_ne!(fa, fc, "different seed, different storm");
        assert!(!fa.is_empty() && fa.len() < 100, "30% density fires some but not all");
    }

    #[test]
    fn fault_stream_injects_and_then_dies() {
        let plan =
            Arc::new(FaultPlan::new().inject(FaultSite::ConnWrite, 1, Fault::ShortWrite).inject(
                FaultSite::ConnRead,
                0,
                Fault::Reset,
            ));
        let mut out = Vec::new();
        {
            let mut stream = FaultStream::new(&mut out, Some(Arc::clone(&plan)));
            assert_eq!(stream.write(b"abcd").unwrap(), 4, "step 0 passes through");
            let err = stream.write(b"wxyz").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
            assert!(stream.write(b"after").is_err(), "dead streams stay dead");
        }
        assert_eq!(&out, b"abcdwx", "short write delivered exactly half before dying");

        let mut reader = FaultStream::new(&b"data"[..], Some(plan));
        let mut buf = [0u8; 4];
        assert!(reader.read(&mut buf).is_err(), "read reset fires on step 0");
    }
}
