//! Deterministic fault injection for [`Store`] backends.
//!
//! [`FaultStore`] wraps any inner store and consults a [`FaultSchedule`]
//! before every operation. The schedule is seeded and fully
//! reproducible: the same seed and the same sequence of store calls
//! produce the same injected faults, so a chaos run that finds a bug is
//! replayable from its seed alone.
//!
//! Three trigger shapes cover the failure modes that matter for a
//! log-structured store:
//!
//! * **fail-Nth** — exactly the `n`th call of an operation kind fails
//!   (deterministic single-shot faults: "the third fsync dies"),
//! * **intermittent** — each call independently fails with a fixed
//!   probability drawn from the seeded PRNG (flaky-disk emulation), and
//! * **always-after-K** — every call after the first `k` fails (a
//!   device that goes away and stays away).
//!
//! Appends can additionally fail *torn*: a PRNG-chosen strict prefix of
//! the frame is written to the inner store before the error surfaces,
//! which is exactly what a power cut mid-`write(2)` leaves behind. The
//! registry must truncate that garbage before appending again, with or
//! without a retry policy, or the log is unrecoverable past it — the
//! chaos suite exists to prove it does.
//!
//! A schedule handle is cheaply cloneable and shares its state: tests
//! keep a clone, let the wrapped registry degrade, then call
//! [`FaultSchedule::clear`] to "fix the disk" and watch the heal probe
//! bring the registry back.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::{StorageError, Store};

/// Cumulative counters for a [`FaultSchedule`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Store operations that consulted the schedule.
    pub ops: u64,
    /// Operations that had a fault injected.
    pub injected: u64,
    /// Injected append faults that left a torn partial frame behind.
    pub torn_appends: u64,
    /// Operations delayed by injected latency.
    pub delayed: u64,
}

/// The store operations a fault rule can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Store::append`] — the per-commit durability write.
    Append,
    /// [`Store::read_log`] — recovery's full log read.
    ReadLog,
    /// [`Store::truncate_log`] — torn-tail repair and compaction.
    TruncateLog,
    /// [`Store::log_bytes`] — size probes.
    LogBytes,
    /// [`Store::write_snapshot`] — compaction's snapshot install.
    WriteSnapshot,
    /// [`Store::read_snapshot`] — recovery's snapshot load.
    ReadSnapshot,
    /// [`Store::list_snapshots`] — recovery's snapshot discovery.
    ListSnapshots,
    /// [`Store::remove_snapshot`] — old-snapshot cleanup.
    RemoveSnapshot,
}

impl OpKind {
    const COUNT: usize = 8;

    fn index(self) -> usize {
        match self {
            OpKind::Append => 0,
            OpKind::ReadLog => 1,
            OpKind::TruncateLog => 2,
            OpKind::LogBytes => 3,
            OpKind::WriteSnapshot => 4,
            OpKind::ReadSnapshot => 5,
            OpKind::ListSnapshots => 6,
            OpKind::RemoveSnapshot => 7,
        }
    }

    /// The `op` string injected errors carry, matching what the real
    /// backends pass to `StorageError::io` for the same operation.
    fn op_name(self) -> &'static str {
        match self {
            OpKind::Append => "append",
            OpKind::ReadLog => "read log",
            OpKind::TruncateLog => "truncate log",
            OpKind::LogBytes => "log bytes",
            OpKind::WriteSnapshot => "write snapshot",
            OpKind::ReadSnapshot => "read snapshot",
            OpKind::ListSnapshots => "list snapshots",
            OpKind::RemoveSnapshot => "remove snapshot",
        }
    }
}

/// What an armed rule injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A transient I/O error ([`StorageError::is_transient`] holds) — a
    /// retry may succeed.
    Transient,
    /// A permanent I/O error — retries are pointless and the registry
    /// should degrade immediately.
    Permanent,
    /// Append only: write a PRNG-chosen strict prefix of the frame to
    /// the inner store, then fail with a transient error — a torn
    /// write. On non-append operations this behaves like
    /// [`Fault::Transient`].
    Torn,
}

#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Exactly the `n`th call (1-based).
    Nth(u64),
    /// Each call independently, with probability `per_mille`/1000.
    Intermittent(u32),
    /// Every call strictly after the first `k`.
    AfterK(u64),
}

#[derive(Debug, Clone, Copy)]
struct Rule {
    trigger: Trigger,
    fault: Fault,
}

struct ScheduleState {
    rng: u64,
    rules: [Vec<Rule>; OpKind::COUNT],
    calls: [u64; OpKind::COUNT],
    latency: [Option<Duration>; OpKind::COUNT],
}

/// splitmix64 — tiny, seedable, std-only, and plenty for fault dice.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Inner {
    state: Mutex<ScheduleState>,
    ops: AtomicU64,
    injected: AtomicU64,
    torn_appends: AtomicU64,
    delayed: AtomicU64,
}

/// A seeded, shared, reproducible schedule of storage faults.
///
/// Handles are `Clone` and share state: arming a rule through one
/// handle affects every [`FaultStore`] driven by a clone, and
/// [`FaultSchedule::clear`] heals them all at once.
#[derive(Clone)]
pub struct FaultSchedule {
    inner: Arc<Inner>,
}

/// What the schedule decided for one operation.
struct Decision {
    fault: Option<Fault>,
    /// PRNG draw for torn-write cut points, fixed at decision time so
    /// the cut is reproducible.
    roll: u64,
    delay: Option<Duration>,
}

impl FaultSchedule {
    /// An empty schedule (no faults, no latency) seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            inner: Arc::new(Inner {
                state: Mutex::new(ScheduleState {
                    rng: seed,
                    rules: Default::default(),
                    calls: [0; OpKind::COUNT],
                    latency: [None; OpKind::COUNT],
                }),
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                torn_appends: AtomicU64::new(0),
                delayed: AtomicU64::new(0),
            }),
        }
    }

    fn arm(self, op: OpKind, trigger: Trigger, fault: Fault) -> Self {
        self.inner.state.lock().expect("fault schedule lock").rules[op.index()]
            .push(Rule { trigger, fault });
        self
    }

    /// Arms a rule that fires on exactly the `n`th call (1-based) of
    /// `op`, counted from schedule creation or the last [`clear`].
    ///
    /// [`clear`]: FaultSchedule::clear
    pub fn fail_nth(self, op: OpKind, n: u64, fault: Fault) -> Self {
        self.arm(op, Trigger::Nth(n), fault)
    }

    /// Arms a rule that fires on each call of `op` independently with
    /// probability `per_mille`/1000, drawn from the seeded PRNG.
    pub fn intermittent(self, op: OpKind, per_mille: u32, fault: Fault) -> Self {
        self.arm(op, Trigger::Intermittent(per_mille), fault)
    }

    /// Arms a rule that fires on every call of `op` strictly after the
    /// first `k`.
    pub fn always_after(self, op: OpKind, k: u64, fault: Fault) -> Self {
        self.arm(op, Trigger::AfterK(k), fault)
    }

    /// Injects `delay` of latency before every call of `op`.
    pub fn latency(self, op: OpKind, delay: Duration) -> Self {
        self.inner
            .state
            .lock()
            .expect("fault schedule lock")
            .latency[op.index()] = Some(delay);
        self
    }

    /// Disarms every rule and latency injection and resets the per-op
    /// call counts — "the disk got replaced". Cumulative counters are
    /// kept.
    pub fn clear(&self) {
        let mut state = self.inner.state.lock().expect("fault schedule lock");
        state.rules = Default::default();
        state.latency = [None; OpKind::COUNT];
        state.calls = [0; OpKind::COUNT];
    }

    /// A snapshot of the cumulative fault counters.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            ops: self.inner.ops.load(Ordering::Relaxed),
            injected: self.inner.injected.load(Ordering::Relaxed),
            torn_appends: self.inner.torn_appends.load(Ordering::Relaxed),
            delayed: self.inner.delayed.load(Ordering::Relaxed),
        }
    }

    fn decide(&self, op: OpKind) -> Decision {
        self.inner.ops.fetch_add(1, Ordering::Relaxed);
        let mut state = self.inner.state.lock().expect("fault schedule lock");
        let idx = op.index();
        state.calls[idx] += 1;
        let call = state.calls[idx];
        let delay = state.latency[idx];
        let mut fired = None;
        for i in 0..state.rules[idx].len() {
            let rule = state.rules[idx][i];
            let fires = match rule.trigger {
                Trigger::Nth(n) => call == n,
                Trigger::Intermittent(per_mille) => {
                    (splitmix64(&mut state.rng) % 1000) < u64::from(per_mille)
                }
                Trigger::AfterK(k) => call > k,
            };
            if fires {
                fired = Some(rule.fault);
                break;
            }
        }
        let roll = splitmix64(&mut state.rng);
        drop(state);
        if fired.is_some() {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        if delay.is_some() {
            self.inner.delayed.fetch_add(1, Ordering::Relaxed);
        }
        Decision {
            fault: fired,
            roll,
            delay,
        }
    }

    fn injected_error(&self, op: OpKind, fault: Fault) -> StorageError {
        let source = match fault {
            Fault::Permanent => io::Error::other("injected fault"),
            Fault::Transient | Fault::Torn => {
                io::Error::new(io::ErrorKind::Interrupted, "injected fault")
            }
        };
        StorageError::io(op.op_name(), source)
    }
}

impl fmt::Debug for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultSchedule")
            .field("counters", &self.counters())
            .finish()
    }
}

/// A [`Store`] wrapper that injects faults from a [`FaultSchedule`]
/// before delegating to the inner store.
#[derive(Debug)]
pub struct FaultStore<S: Store> {
    inner: S,
    schedule: FaultSchedule,
}

impl<S: Store> FaultStore<S> {
    /// Wraps `inner`, driving faults from `schedule`.
    pub fn new(inner: S, schedule: FaultSchedule) -> Self {
        FaultStore { inner, schedule }
    }

    /// The driving schedule (clone it to keep control after handing the
    /// store to a registry).
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Consumes the wrapper, returning the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn gate(&self, op: OpKind) -> Result<(), StorageError> {
        let decision = self.schedule.decide(op);
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fault {
            Some(fault) => Err(self.schedule.injected_error(op, fault)),
            None => Ok(()),
        }
    }
}

impl<S: Store> Store for FaultStore<S> {
    fn append(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        let decision = self.schedule.decide(OpKind::Append);
        if let Some(delay) = decision.delay {
            std::thread::sleep(delay);
        }
        match decision.fault {
            None => self.inner.append(frame),
            Some(Fault::Torn) if !frame.is_empty() => {
                // A torn write: a strict prefix reaches the store, then
                // the error surfaces. cut == 0 degenerates to a clean
                // failure, which is also a legitimate crash shape.
                let cut = (decision.roll % frame.len() as u64) as usize;
                if cut > 0 {
                    self.schedule
                        .inner
                        .torn_appends
                        .fetch_add(1, Ordering::Relaxed);
                    self.inner.append(&frame[..cut])?;
                }
                Err(self.schedule.injected_error(OpKind::Append, Fault::Torn))
            }
            Some(fault) => Err(self.schedule.injected_error(OpKind::Append, fault)),
        }
    }

    fn read_log(&mut self) -> Result<Vec<u8>, StorageError> {
        self.gate(OpKind::ReadLog)?;
        self.inner.read_log()
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), StorageError> {
        self.gate(OpKind::TruncateLog)?;
        self.inner.truncate_log(len)
    }

    fn log_bytes(&self) -> Result<u64, StorageError> {
        self.gate(OpKind::LogBytes)?;
        self.inner.log_bytes()
    }

    fn write_snapshot(&mut self, generation: u64, image: &[u8]) -> Result<(), StorageError> {
        self.gate(OpKind::WriteSnapshot)?;
        self.inner.write_snapshot(generation, image)
    }

    fn read_snapshot(&mut self, generation: u64) -> Result<Vec<u8>, StorageError> {
        self.gate(OpKind::ReadSnapshot)?;
        self.inner.read_snapshot(generation)
    }

    fn list_snapshots(&mut self) -> Result<Vec<u64>, StorageError> {
        self.gate(OpKind::ListSnapshots)?;
        self.inner.list_snapshots()
    }

    fn remove_snapshot(&mut self, generation: u64) -> Result<(), StorageError> {
        self.gate(OpKind::RemoveSnapshot)?;
        self.inner.remove_snapshot(generation)
    }

    fn fault_counters(&self) -> Option<FaultCounters> {
        Some(self.schedule.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemoryStore;
    use super::*;

    #[test]
    fn fail_nth_hits_exactly_the_nth_call() {
        let schedule = FaultSchedule::new(7).fail_nth(OpKind::Append, 2, Fault::Transient);
        let mut store = FaultStore::new(MemoryStore::new(), schedule);
        store.append(b"one").unwrap();
        let err = store.append(b"two").unwrap_err();
        assert!(err.is_transient());
        store.append(b"three").unwrap();
        let counters = store.fault_counters().unwrap();
        assert_eq!(counters.ops, 3);
        assert_eq!(counters.injected, 1);
    }

    #[test]
    fn always_after_k_fails_everything_past_the_threshold() {
        let schedule = FaultSchedule::new(7).always_after(OpKind::LogBytes, 1, Fault::Permanent);
        let store = FaultStore::new(MemoryStore::new(), schedule);
        assert!(store.log_bytes().is_ok());
        let err = store.log_bytes().unwrap_err();
        assert!(!err.is_transient());
        assert!(store.log_bytes().is_err());
    }

    #[test]
    fn intermittent_faults_are_reproducible_from_the_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let schedule =
                FaultSchedule::new(seed).intermittent(OpKind::Append, 400, Fault::Transient);
            let mut store = FaultStore::new(MemoryStore::new(), schedule);
            (0..32).map(|_| store.append(b"x").is_err()).collect()
        };
        let first = outcomes(99);
        assert_eq!(first, outcomes(99), "same seed must replay identically");
        assert!(first.iter().any(|fired| *fired));
        assert!(first.iter().any(|fired| !*fired));
        assert_ne!(first, outcomes(100), "different seed should diverge");
    }

    #[test]
    fn torn_append_leaves_a_strict_prefix_behind() {
        // Scan seeds until one produces a non-empty cut so the test
        // asserts the interesting shape deterministically.
        for seed in 0..64 {
            let schedule = FaultSchedule::new(seed).fail_nth(OpKind::Append, 1, Fault::Torn);
            let mut store = FaultStore::new(MemoryStore::new(), schedule);
            let frame = [0xABu8; 64];
            let err = store.append(&frame).unwrap_err();
            assert!(err.is_transient(), "torn writes are transient");
            let written = store.fault_counters().unwrap().torn_appends;
            let inner = store.into_inner();
            if written == 1 {
                // Header + a strict prefix of the frame, never the whole
                // frame.
                assert!(!inner.log_image().is_empty());
                assert!(inner.log_image().len() < super::super::wal::WAL_HEADER_LEN + frame.len());
                return;
            }
            assert!(inner.log_image().is_empty(), "cut of zero writes nothing");
        }
        panic!("no seed in 0..64 produced a torn prefix");
    }

    #[test]
    fn clear_heals_and_resets_call_counts() {
        let schedule = FaultSchedule::new(3).always_after(OpKind::Append, 0, Fault::Transient);
        let handle = schedule.clone();
        let mut store = FaultStore::new(MemoryStore::new(), schedule);
        assert!(store.append(b"x").is_err());
        handle.clear();
        store.append(b"x").unwrap();
        let counters = handle.counters();
        assert_eq!(counters.injected, 1);
        assert_eq!(counters.ops, 2);
    }

    #[test]
    fn latency_is_injected_and_counted() {
        let schedule = FaultSchedule::new(1).latency(OpKind::Append, Duration::from_millis(1));
        let mut store = FaultStore::new(MemoryStore::new(), schedule);
        let started = std::time::Instant::now();
        store.append(b"x").unwrap();
        assert!(started.elapsed() >= Duration::from_millis(1));
        assert_eq!(store.fault_counters().unwrap().delayed, 1);
    }
}
