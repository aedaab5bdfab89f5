//! The registry: concurrent versioned members and the incremental merge
//! engine.
//!
//! ## Concurrency
//!
//! The view state (members, generation, merged view) lives behind one
//! `RwLock`; the join cache behind its own `Mutex` (the two are never
//! held at once). Reads — [`Registry::merged`], [`Registry::get`],
//! [`Registry::list`], [`Registry::stats`], [`Registry::health`],
//! [`Registry::query`] — take the read lock just long enough to clone an
//! `Arc`, and never take a lock that a commit holds across merge work,
//! storage I/O or a retry backoff.
//!
//! Commits are ordered by one *writer mutex*, which owns the persistence
//! arm. Under it, a commit captures the unchanged members under a brief
//! read lock, plans and executes the merge with no view lock held,
//! appends and fsyncs its WAL record, and only then takes the write lock
//! to apply the mutation and swap in the new view — pointer work. A due
//! auto-snapshot follows, its state captured under a brief read lock and
//! written under the writer mutex alone. The one lock order is
//! writer → view. [`Registry::put`] and [`Registry::delete`] are thin
//! wrappers over that single commit path; a no-op republish is answered
//! from the read lock and never queues behind a commit.
//!
//! ## Incrementality
//!
//! The merge is a least upper bound, so for any member `k`,
//! `⊔ᵢ Gᵢ = (⊔ᵢ≠ₖ Gᵢ) ⊔ Gₖ` — the join of everything else is a
//! *reusable intermediate*. Joins are not invertible, so the engine
//! cannot subtract `k`'s old contribution from the cached total;
//! instead it remembers the joins it has computed — compiled, so the
//! interner survives across generations — keyed by the exact
//! member-version set. Every re-merge is built as a
//! [`schema_merge_core::merger::MergePlan`]: the cached compiled join of
//! the unchanged members is handed to
//! [`Merger::onto_base`](schema_merge_core::Merger::onto_base), so each
//! publish of `k` interns only the changed member and completes straight
//! off the compiled join (materializing the symbolic schema exactly
//! once, for the committed view). When no cached join matches, the
//! engine falls back to joining every unchanged member from scratch (a
//! plain batch `Merger` execution) and seeds the cache so the next
//! publish is incremental. Either way the committed view is **equal** to
//! the one-shot merge of the current members — associativity is not an
//! optimization that changes answers.
//!
//! ## Durability
//!
//! A registry opened with a store ([`crate::RegistryBuilder::data_dir`]
//! or [`crate::RegistryBuilder::store`]) writes every commit to an
//! append-only WAL *before* it becomes visible: under the writer mutex,
//! after the merge succeeded but before the view state mutates, the
//! put/delete record is framed, appended and fsync'd
//! ([`crate::storage`]). A commit that cannot be made durable is
//! returned as [`RegistryError::Storage`] with the registry untouched,
//! so the in-memory state never runs ahead of the log — crash anywhere
//! and recovery replays exactly the acknowledged sequence. Every
//! `snapshot_every` records the registry compacts: it snapshots the full
//! member state (schema bodies deduplicated by content hash) and
//! truncates the log.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use schema_merge_core::{
    Class, CompiledSchema, CompletionReport, MergeError, Merger, ProperSchema, WeakSchema,
};
use schema_merge_instance::PathQuery;
use schema_merge_telemetry::{self as telemetry, Histogram, HistogramSnapshot};

use crate::cache::{fingerprint, JoinCache};
use crate::config::RegistryBuilder;
use crate::error::RegistryError;
use crate::resilience::{retry, Health, RetryPolicy};
use crate::stats::RegistryStats;
use crate::storage::snapshot::{SnapshotState, VersionMeta};
use crate::storage::wal::{self, WalRecord};
use crate::storage::{snapshot, FaultCounters, StorageError, Store};
use crate::version::{MemberInfo, MemberRecord, SchemaVersion};

/// How a commit's merged view was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// The content hash matched the current version: nothing recomputed.
    Noop,
    /// A cached join of the unchanged members was reused; only the final
    /// two-way join and the completion ran.
    Incremental,
    /// No cached join applied; every unchanged member was re-joined.
    Full,
}

impl MergeStrategy {
    /// The lower-case wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            MergeStrategy::Noop => "noop",
            MergeStrategy::Incremental => "incremental",
            MergeStrategy::Full => "full",
        }
    }
}

/// The result of a successful [`Registry::put`].
#[derive(Debug, Clone)]
pub struct PutOutcome {
    /// Content hash of the published schema.
    pub hash: u64,
    /// The version's sequence number within the member (unchanged for a
    /// no-op republish).
    pub sequence: u32,
    /// Registry generation after the operation (unchanged for a no-op).
    pub generation: u64,
    /// Which engine path produced the new merged view.
    pub strategy: MergeStrategy,
}

/// The result of a successful [`Registry::delete`].
#[derive(Debug, Clone)]
pub struct DeleteOutcome {
    /// Registry generation after the delete.
    pub generation: u64,
    /// Members remaining.
    pub remaining: usize,
    /// Which engine path produced the new merged view.
    pub strategy: MergeStrategy,
}

/// A generation-stamped handle on the merged view. Everything is
/// `Arc`-shared — taking a view never copies a schema, and the registry
/// moving on to later generations never invalidates it.
///
/// The pre-completion weak join is not materialized symbolically — it
/// lives compiled in the join cache, where the next incremental publish
/// reuses it; the canonical merged schema (and its weak form, via
/// [`ProperSchema::as_weak`]) is what clients consume.
#[derive(Debug, Clone)]
pub struct MergedView {
    /// The generation whose commit produced this view.
    pub generation: u64,
    /// The completed merge — the canonical merged schema served to
    /// clients.
    pub proper: Arc<ProperSchema>,
    /// Implicit-class provenance from the completion.
    pub report: Arc<CompletionReport>,
}

impl MergedView {
    /// Canonical content hash of the merged proper schema.
    pub fn hash(&self) -> u64 {
        self.proper.content_hash()
    }
}

/// A coherent snapshot of the registry's pre-completion compiled join —
/// what [`Registry::compiled_join`] hands to the federation layer. The
/// member list, fingerprint and join all describe the *same* member-set
/// (captured under one lock acquisition), so a supergraph compose can
/// detect deltas by fingerprint and attribute provenance by member
/// without racing concurrent publishes.
#[derive(Clone)]
pub struct RegistryJoin {
    /// The registry generation the join reflects.
    pub generation: u64,
    /// [`crate::cache::fingerprint`] over the `(member, content-hash)`
    /// pairs of `members` — the join's set identity.
    pub fingerprint: u64,
    /// Every member's current version at the snapshot, sorted by name.
    pub members: Vec<(String, SchemaVersion)>,
    /// The compiled weak join of all member schemas (no implicit
    /// classes — completion has not run).
    pub join: Arc<CompiledSchema>,
}

/// The computed pieces of a candidate view, pre-`Arc`ed so commit is
/// pointer shuffling only. The compiled join rides along to seed the
/// cache: it is the interner the *next* incremental publish will reuse.
pub(crate) struct Candidate {
    pub(crate) compiled: Arc<CompiledSchema>,
    pub(crate) proper: Arc<ProperSchema>,
    pub(crate) report: Arc<CompletionReport>,
}

pub(crate) struct Shared {
    pub(crate) generation: u64,
    pub(crate) members: BTreeMap<String, MemberRecord>,
    pub(crate) proper: Arc<ProperSchema>,
    pub(crate) report: Arc<CompletionReport>,
}

impl Shared {
    /// The durable state as a snapshot image would hold it: an `Arc`
    /// clone of every version, schema bodies deduplicated by content
    /// hash. Pointer work, so a writer captures it under a brief read
    /// lock and encodes it with none.
    fn snapshot_state(&self) -> SnapshotState {
        let mut state = SnapshotState {
            generation: self.generation,
            view_hash: self.proper.content_hash(),
            ..SnapshotState::default()
        };
        for (name, record) in &self.members {
            let mut versions = Vec::with_capacity(record.versions.len());
            for v in &record.versions {
                state
                    .blobs
                    .entry(v.hash)
                    .or_insert_with(|| Arc::clone(&v.schema));
                versions.push(VersionMeta {
                    hash: v.hash,
                    sequence: v.sequence,
                    generation: v.generation,
                });
            }
            state.members.insert(name.clone(), versions);
        }
        state
    }
}

/// One member-history change: the unit a commit orders and the WAL
/// records. Commit and WAL replay apply it through the same
/// [`Mutation::apply`].
pub(crate) enum Mutation {
    /// Publish `schema` (content hash `hash`) as `name`'s next version.
    Put {
        name: String,
        schema: Arc<WeakSchema>,
        hash: u64,
    },
    /// Remove member `name`.
    Delete { name: String },
}

impl Mutation {
    fn name(&self) -> &str {
        match self {
            Mutation::Put { name, .. } | Mutation::Delete { name } => name,
        }
    }

    /// Applies the change as the commit of `generation`: a put appends
    /// the member's next version (creating the member), a delete removes
    /// the member. Returns `false`, leaving `members` untouched, for a
    /// delete of an absent member.
    pub(crate) fn apply(
        self,
        members: &mut BTreeMap<String, MemberRecord>,
        generation: u64,
    ) -> bool {
        match self {
            Mutation::Put { name, schema, hash } => {
                let record = members.entry(name).or_insert_with(|| MemberRecord {
                    versions: Vec::new(),
                });
                record.versions.push(SchemaVersion {
                    hash,
                    sequence: record.versions.len() as u32 + 1,
                    generation,
                    schema,
                });
                true
            }
            Mutation::Delete { name } => members.remove(&name).is_some(),
        }
    }
}

/// The store's numbers that STATS and HEALTH report. The writer keeps
/// the live copy in [`Persistence`] and publishes it to the registry at
/// the end of every writer section, so reads never wait on the writer
/// mutex.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StoreStats {
    /// Records in the log since the last compaction.
    pub(crate) wal_records: u64,
    /// Bytes in the log.
    pub(crate) wal_bytes: u64,
    /// Generation of the newest snapshot object (0 = none).
    pub(crate) snapshot_generation: u64,
    pub(crate) snapshot_bytes: u64,
    pub(crate) snapshots_written: u64,
    /// The store's fault-injection counters, when it injects faults.
    pub(crate) fault_counters: Option<FaultCounters>,
}

/// The registry's persistence arm: the pluggable store plus the
/// bookkeeping that makes WAL dedup, torn-tail repair and compaction
/// cadence work. Owned by the writer mutex, so every store call is
/// ordered with the commits.
pub(crate) struct Persistence {
    pub(crate) store: Box<dyn Store>,
    /// Auto-snapshot after this many WAL records (0 = manual only).
    pub(crate) snapshot_every: u64,
    pub(crate) stats: StoreStats,
    /// Content hashes whose schema bodies are currently recoverable from
    /// the store (snapshot blob table ∪ bodies carried in the live log).
    /// A put whose hash is present appends a by-reference record — the
    /// WAL-level content-hash dedup.
    pub(crate) on_disk: HashSet<u64>,
    /// Pre-append log length of a failed append that may have left a
    /// torn partial frame behind (`None` = log tail is clean). The next
    /// append — or probe — truncates back here first, or the log would
    /// be unrecoverable past the garbage.
    pub(crate) torn_at: Option<u64>,
}

impl Persistence {
    /// Appends one framed record and makes it durable; only then may the
    /// caller make the commit visible. The log length is read first, so
    /// a failure that tears the frame is repaired before the next
    /// append. The store call — write plus fsync, per the
    /// [`Store::append`] contract — is timed into `fsync`, the
    /// registry's durability-wait histogram.
    fn append(&mut self, frame: &[u8], fsync: &Histogram) -> Result<(), StorageError> {
        self.repair_torn()?;
        let base = self.store.log_bytes()?;
        let mut span = telemetry::span("wal-append");
        span.attr_usize("bytes", frame.len());
        let started = Instant::now();
        if let Err(err) = self.store.append(frame) {
            self.torn_at = Some(base);
            return Err(err);
        }
        fsync.record(started.elapsed());
        drop(span);
        self.stats.wal_records += 1;
        // An empty log gains its format header ahead of the first frame.
        self.stats.wal_bytes = base.max(wal::WAL_HEADER_LEN as u64) + frame.len() as u64;
        Ok(())
    }

    /// Truncates away the partial frame a failed append may have left,
    /// restoring the log to its last-known-good length.
    fn repair_torn(&mut self) -> Result<(), StorageError> {
        if let Some(base) = self.torn_at {
            self.store.truncate_log(base)?;
            self.torn_at = None;
        }
        Ok(())
    }

    /// Writes `state` as a snapshot, truncates the log, and drops
    /// superseded snapshot objects. The caller must be the writer, so no
    /// commit can interleave between the state capture and the log
    /// truncation.
    fn write_snapshot(&mut self, state: &SnapshotState) -> Result<u64, StorageError> {
        let mut span = telemetry::span("snapshot");
        span.attr("generation", state.generation);
        let image = snapshot::encode(state);
        span.attr_usize("bytes", image.len());
        self.store.write_snapshot(state.generation, &image)?;
        // The snapshot holds everything: the log is now redundant, and
        // older snapshot objects are superseded.
        self.store.truncate_log(0)?;
        self.torn_at = None;
        for old in self.store.list_snapshots()? {
            if old != state.generation {
                self.store.remove_snapshot(old)?;
            }
        }
        self.stats.snapshot_generation = state.generation;
        self.stats.snapshot_bytes = image.len() as u64;
        self.stats.snapshots_written += 1;
        self.stats.wal_records = 0;
        self.stats.wal_bytes = self.store.log_bytes().unwrap_or(0);
        self.on_disk = state.blobs.keys().copied().collect();
        Ok(state.generation)
    }

    fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.stats.wal_records >= self.snapshot_every
    }

    /// Refreshes the fault counters and returns the numbers to publish.
    pub(crate) fn publish(&mut self) -> StoreStats {
        self.stats.fault_counters = self.store.fault_counters();
        self.stats
    }
}

/// The registry's resilience state: the opt-in retry policy plus the
/// degraded-mode flag and its counters. With no policy configured
/// (`policy: None`, the default) the registry is fail-fast and never
/// degrades.
#[derive(Default)]
pub(crate) struct Resilience {
    pub(crate) policy: Option<RetryPolicy>,
    degraded: AtomicBool,
    last_error: Mutex<Option<String>>,
    storage_retries: AtomicU64,
    degrade_events: AtomicU64,
    heal_events: AtomicU64,
    snapshot_failures: AtomicU64,
}

impl Resilience {
    fn note_error(&self, err: &StorageError) {
        *self.last_error.lock().expect("resilience lock") = Some(err.to_string());
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    incremental: AtomicU64,
    full: AtomicU64,
    noop: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
}

/// The registry's always-on latency telemetry: lock-free log₂ histograms
/// ([`Histogram`]) recorded on every commit regardless of span
/// enablement — cheap enough to never gate — plus the instance epoch
/// that anchors uptime.
pub(crate) struct RegistryMetrics {
    /// When this registry instance was opened (new or recovered).
    pub(crate) started_at: Instant,
    /// End-to-end latency of successful generation-spending commits
    /// (put/delete, noops excluded), capture-to-visible plus any
    /// auto-snapshot the commit ran.
    pub(crate) commit_latency: Histogram,
    /// Durability wait per commit: the WAL append + fsync store call.
    pub(crate) fsync_latency: Histogram,
    /// Boot-time recovery (snapshot load + log replay + re-merge +
    /// verify); one sample per durable open.
    pub(crate) recovery_latency: Histogram,
}

impl Default for RegistryMetrics {
    fn default() -> Self {
        RegistryMetrics {
            started_at: Instant::now(),
            commit_latency: Histogram::new(),
            fsync_latency: Histogram::new(),
            recovery_latency: Histogram::new(),
        }
    }
}

/// The concurrent schema registry. See the [module docs](self) for the
/// locking, incrementality and durability story.
pub struct Registry {
    pub(crate) shared: RwLock<Shared>,
    pub(crate) cache: Mutex<JoinCache>,
    pub(crate) counters: Counters,
    /// Worker budget for the merge engine (`None` = the merger's
    /// defaults: sequential below the parallel work threshold, the
    /// machine's parallelism above it).
    pub(crate) merge_threads: Option<usize>,
    /// The writer mutex: it orders every commit, snapshot and probe, and
    /// owns the durability arm (`None` for a purely in-memory registry).
    /// No read ever takes it.
    pub(crate) writer: Mutex<Option<Persistence>>,
    /// The store's numbers as of the last writer section (`None` for an
    /// in-memory registry) — what STATS and HEALTH read.
    pub(crate) store_stats: Mutex<Option<StoreStats>>,
    /// Latency histograms and the uptime epoch.
    pub(crate) metrics: RegistryMetrics,
    /// Retry policy and degraded-mode state.
    pub(crate) resilience: Resilience,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// What one commit reports back to [`Registry::put`] or
/// [`Registry::delete`].
struct Committed {
    generation: u64,
    /// The member's current version sequence (meaningful for a put).
    sequence: u32,
    /// Members after the commit.
    remaining: usize,
    strategy: MergeStrategy,
}

impl Registry {
    /// An empty registry: generation 0, the merge of nothing (the empty
    /// proper schema) as its view.
    pub fn new() -> Self {
        let empty = ProperSchema::try_new(WeakSchema::empty()).expect("the empty schema is proper");
        Registry {
            shared: RwLock::new(Shared {
                generation: 0,
                members: BTreeMap::new(),
                proper: Arc::new(empty),
                report: Arc::new(CompletionReport::default()),
            }),
            cache: Mutex::new(JoinCache::default()),
            counters: Counters::default(),
            merge_threads: None,
            writer: Mutex::new(None),
            store_stats: Mutex::new(None),
            metrics: RegistryMetrics::default(),
            resilience: Resilience::default(),
        }
    }

    /// Starts configuring a registry: merge-thread budget, data
    /// directory (or custom [`Store`]) and snapshot cadence, ending in
    /// [`RegistryBuilder::open`]. `Registry::builder().open()` is
    /// equivalent to [`Registry::new`].
    pub fn builder() -> RegistryBuilder {
        RegistryBuilder::new()
    }

    /// Publishes `schema` as the next version of member `name`.
    ///
    /// Content-addressed: if the canonical content hash equals the
    /// member's current version, nothing is recomputed and no generation
    /// is spent ([`MergeStrategy::Noop`]). Otherwise the merged view is
    /// recomputed — incrementally when a cached join of the unchanged
    /// members applies — and committed together with the new immutable
    /// version.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Rejected`] when the published schema is
    /// incompatible with the other members (specialization cycle across
    /// the member set). The registry is left exactly as it was.
    pub fn put(
        &self,
        name: impl Into<String>,
        schema: WeakSchema,
    ) -> Result<PutOutcome, RegistryError> {
        self.check_writable()?;
        let name = name.into();
        let hash = schema.content_hash();
        // The no-op fast path takes only the read lock, so a republish
        // of the current content never queues behind a commit.
        let noop = self.noop(&self.shared.read().expect("registry lock"), &name, hash);
        let committed = match noop {
            Some(noop) => noop,
            None => self.commit(Mutation::Put {
                name,
                schema: Arc::new(schema),
                hash,
            })?,
        };
        Ok(PutOutcome {
            hash,
            sequence: committed.sequence,
            generation: committed.generation,
            strategy: committed.strategy,
        })
    }

    /// Removes member `name` and re-merges the remainder (incrementally
    /// when the remainder's join is cached — it is whenever `name` was
    /// the most recently churned member).
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownMember`] when no such member exists.
    pub fn delete(&self, name: &str) -> Result<DeleteOutcome, RegistryError> {
        let committed = self.commit(Mutation::Delete {
            name: name.to_string(),
        })?;
        Ok(DeleteOutcome {
            generation: committed.generation,
            remaining: committed.remaining,
            strategy: committed.strategy,
        })
    }

    /// The current merged view (three `Arc` clones; never blocks writers
    /// for longer than that).
    pub fn merged(&self) -> MergedView {
        let shared = self.shared.read().expect("registry lock");
        MergedView {
            generation: shared.generation,
            proper: Arc::clone(&shared.proper),
            report: Arc::clone(&shared.report),
        }
    }

    /// The compiled pre-completion join of every current member version —
    /// the registry's contribution to a federated supergraph compose
    /// (`crates/supergraph`). Probes the join cache with the full
    /// member-set fingerprint (the commit path seeds that entry on every
    /// generation, so steady-state calls are O(1) `Arc` clones) and
    /// computes — then seeds — the join on a miss. Returns the generation
    /// the join reflects alongside the join itself.
    ///
    /// This is the *join*, not the merged view: completion has not run,
    /// no implicit classes are present — exactly the representation the
    /// composition law `⊔ᵢⱼGᵢⱼ = ⊔ᵢ(⊔ⱼGᵢⱼ)` needs to make a supergraph
    /// compose equal to the one-shot merge of every member everywhere.
    ///
    /// # Errors
    ///
    /// [`MergeError::Incompatible`] cannot actually occur for a registry
    /// that accepted all its members (every commit validated the total
    /// join), but the signature carries it for the cold-cache recompute
    /// path.
    pub fn compiled_join(&self) -> Result<RegistryJoin, MergeError> {
        let (generation, members) = self.versioned_members();
        let fp = fingerprint(members.iter().map(|(n, v)| (n.as_str(), v.hash)));
        let (join, strategy) =
            self.cached_join(fp, members.iter().map(|(_, v)| v.schema.as_ref()))?;
        if strategy == MergeStrategy::Full {
            self.cache
                .lock()
                .expect("cache lock")
                .insert(fp, Arc::clone(&join));
        }
        Ok(RegistryJoin {
            generation,
            fingerprint: fp,
            members,
            join,
        })
    }

    /// A coherent snapshot of every member's current version (one lock
    /// acquisition), sorted by name — the supergraph's provenance pass
    /// walks this to attribute composed classes to
    /// `registry/member@vN` origins.
    pub fn current_members(&self) -> Vec<(String, SchemaVersion)> {
        self.versioned_members().1
    }

    /// The generation and every member's current version, read under one
    /// lock acquisition, sorted by name.
    fn versioned_members(&self) -> (u64, Vec<(String, SchemaVersion)>) {
        let shared = self.shared.read().expect("registry lock");
        let members = shared
            .members
            .iter()
            .map(|(name, record)| (name.clone(), record.current().clone()))
            .collect();
        (shared.generation, members)
    }

    /// The current version of member `name`.
    pub fn get(&self, name: &str) -> Option<SchemaVersion> {
        let shared = self.shared.read().expect("registry lock");
        shared.members.get(name).map(|r| r.current().clone())
    }

    /// The full immutable version history of member `name`, oldest
    /// first.
    pub fn history(&self, name: &str) -> Option<Vec<SchemaVersion>> {
        let shared = self.shared.read().expect("registry lock");
        shared.members.get(name).map(|r| r.versions.clone())
    }

    /// All members with their current-version identity, sorted by name.
    pub fn list(&self) -> Vec<MemberInfo> {
        let shared = self.shared.read().expect("registry lock");
        shared
            .members
            .iter()
            .map(|(name, record)| {
                let current = record.current();
                MemberInfo {
                    name: name.clone(),
                    hash: current.hash,
                    sequence: current.sequence,
                    versions: record.versions.len(),
                    num_classes: current.schema.num_classes(),
                    num_arrows: current.schema.num_arrows(),
                }
            })
            .collect()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.shared.read().expect("registry lock").members.len()
    }

    /// Whether the registry has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates a schema-space path query against the merged view:
    /// which classes does the path reach in the canonical merged schema
    /// ([`PathQuery::eval_classes`]).
    pub fn query(&self, query: &PathQuery) -> BTreeSet<Class> {
        let view = self.merged();
        query.eval_classes(view.proper.as_weak())
    }

    /// Forces a snapshot and log compaction now, regardless of cadence:
    /// the full member state is written as one atomically-installed
    /// image (schema bodies deduplicated by content hash), the WAL is
    /// truncated, and superseded snapshot objects are removed. Returns
    /// the generation the snapshot captured. Like a commit it runs as
    /// the writer, and reads keep serving while it writes.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotPersistent`] for a registry opened without a
    /// data dir or store; [`RegistryError::Storage`] when the store
    /// fails — the previous snapshot and the log are still intact then
    /// (the new image is installed before anything is discarded), so
    /// nothing committed is ever lost.
    pub fn snapshot(&self) -> Result<u64, RegistryError> {
        self.as_writer(|persistence| {
            self.check_writable()?;
            let p = persistence.ok_or(RegistryError::NotPersistent)?;
            Ok(self.write_snapshot(p)?)
        })
    }

    /// A statistics snapshot: state sizes and merged-view shape are
    /// coherent (read under one lock acquisition); the engine counters
    /// are monotone and read atomically alongside, and the durability
    /// numbers are those published by the last writer section.
    pub fn stats(&self) -> RegistryStats {
        let (generation, members, total_versions, proper, report) = {
            let shared = self.shared.read().expect("registry lock");
            (
                shared.generation,
                shared.members.len(),
                shared.members.values().map(|r| r.versions.len()).sum(),
                Arc::clone(&shared.proper),
                Arc::clone(&shared.report),
            )
        };
        let (cache_entries, cache_hits, cache_misses, cache_evictions) = {
            let cache = self.cache.lock().expect("cache lock");
            (cache.len(), cache.hits(), cache.misses(), cache.evictions())
        };
        let store = *self.store_stats.lock().expect("store stats lock");
        let durable = store.unwrap_or_default();
        let weak = proper.as_weak();
        RegistryStats {
            generation,
            members,
            total_versions,
            merged_classes: weak.num_classes(),
            merged_arrows: weak.num_arrows(),
            merged_specializations: weak.num_specializations(),
            implicit_classes: report.num_implicit(),
            merged_hash: proper.content_hash(),
            incremental_merges: self.counters.incremental.load(Ordering::Relaxed),
            full_merges: self.counters.full.load(Ordering::Relaxed),
            noop_puts: self.counters.noop.load(Ordering::Relaxed),
            rejected_puts: self.counters.rejected.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            uptime_secs: self.uptime_secs(),
            requests_served: self.counters.requests.load(Ordering::Relaxed),
            persistent: store.is_some(),
            wal_records: durable.wal_records,
            wal_bytes: durable.wal_bytes,
            snapshot_generation: durable.snapshot_generation,
            snapshot_bytes: durable.snapshot_bytes,
            snapshots_written: durable.snapshots_written,
            degraded: self.resilience.degraded.load(Ordering::SeqCst),
            storage_retries: self.resilience.storage_retries.load(Ordering::Relaxed),
        }
    }

    // ---- resilience ------------------------------------------------------

    /// A snapshot of the registry's resilience state — what the `HEALTH`
    /// protocol verb serves. The fault counters are those published by
    /// the last writer section, so a stalled commit never stalls HEALTH.
    pub fn health(&self) -> Health {
        let fault_counters = self
            .store_stats
            .lock()
            .expect("store stats lock")
            .and_then(|s| s.fault_counters);
        Health {
            degraded: self.resilience.degraded.load(Ordering::SeqCst),
            last_storage_error: self
                .resilience
                .last_error
                .lock()
                .expect("resilience lock")
                .clone(),
            storage_retries: self.resilience.storage_retries.load(Ordering::Relaxed),
            degrade_events: self.resilience.degrade_events.load(Ordering::Relaxed),
            heal_events: self.resilience.heal_events.load(Ordering::Relaxed),
            snapshot_failures: self.resilience.snapshot_failures.load(Ordering::Relaxed),
            fault_counters,
        }
    }

    /// Whether the registry is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.resilience.degraded.load(Ordering::SeqCst)
    }

    /// Probes the store and heals a degraded registry back to writable.
    /// Returns `true` when the registry is writable after the call.
    ///
    /// The probe repairs any torn log tail left by the failed append
    /// and asks the store for its log length; if both succeed the
    /// degraded flag clears. Nothing is replayed: the commit whose
    /// failure triggered degradation was never acknowledged, so the
    /// in-memory view and the WAL never diverged. The `smerge serve`
    /// daemon calls this from a background thread; embedders can call
    /// it on whatever cadence suits them.
    pub fn probe_now(&self) -> bool {
        if !self.resilience.degraded.load(Ordering::SeqCst) {
            return true;
        }
        let probe = self.as_writer(|persistence| match persistence {
            Some(p) => p
                .repair_torn()
                .and_then(|()| p.store.log_bytes().map(|_| ())),
            // Degradation without a store cannot arise, but heal anyway.
            None => Ok(()),
        });
        match probe {
            Ok(()) => {
                if self.resilience.degraded.swap(false, Ordering::SeqCst) {
                    self.resilience.heal_events.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
            Err(err) => {
                self.resilience.note_error(&err);
                false
            }
        }
    }

    /// Rejects writes while degraded, with the stable `E-DEGRADED` code.
    fn check_writable(&self) -> Result<(), RegistryError> {
        if self.resilience.degraded.load(Ordering::SeqCst) {
            let detail = self
                .resilience
                .last_error
                .lock()
                .expect("resilience lock")
                .clone()
                .unwrap_or_else(|| "storage unavailable".to_string());
            return Err(RegistryError::Degraded { detail });
        }
        Ok(())
    }

    /// Appends one commit frame, retrying transient storage failures
    /// under the configured policy (each attempt first truncates any torn
    /// partial frame the previous one left). Under a policy, exhausting
    /// the budget — or a permanent failure — flips the registry into
    /// degraded read-only mode; either way the error surfaces as
    /// [`RegistryError::Storage`] since this commit was never
    /// acknowledged.
    fn durable_append(
        &self,
        p: &mut Persistence,
        frame: &[u8],
        generation: u64,
    ) -> Result<(), RegistryError> {
        let policy = self.resilience.policy.as_ref();
        retry(policy, generation, |attempt| {
            if attempt > 0 {
                self.resilience
                    .storage_retries
                    .fetch_add(1, Ordering::Relaxed);
            }
            p.append(frame, &self.metrics.fsync_latency)
                .inspect_err(|err| self.resilience.note_error(err))
        })
        .map_err(|err| {
            if policy.is_some() && !self.resilience.degraded.swap(true, Ordering::SeqCst) {
                let events = &self.resilience.degrade_events;
                events.fetch_add(1, Ordering::Relaxed);
            }
            RegistryError::Storage(err)
        })
    }

    // ---- telemetry -------------------------------------------------------

    /// Notes one served request. The registry never counts for itself —
    /// its front end (the `smerge serve` worker loop) calls this once
    /// per protocol request, making [`RegistryStats::requests_served`]
    /// a service-level counter rather than an engine one.
    pub fn note_request(&self) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Whole seconds since this registry instance was opened.
    pub fn uptime_secs(&self) -> u64 {
        self.metrics.started_at.elapsed().as_secs()
    }

    /// Snapshot of the end-to-end commit latency histogram (successful
    /// generation-spending `put`/`delete` calls; noops excluded).
    pub fn commit_latency(&self) -> HistogramSnapshot {
        self.metrics.commit_latency.snapshot()
    }

    /// Snapshot of the per-commit durability wait (WAL append + fsync).
    /// Empty for an in-memory registry.
    pub fn fsync_latency(&self) -> HistogramSnapshot {
        self.metrics.fsync_latency.snapshot()
    }

    /// Snapshot of the boot-time recovery latency — one sample per
    /// durable open ([`crate::RegistryBuilder::open`]); empty for an
    /// in-memory registry.
    pub fn recovery_latency(&self) -> HistogramSnapshot {
        self.metrics.recovery_latency.snapshot()
    }

    // ---- the commit path -------------------------------------------------

    /// Runs `f` as the registry's one writer — holding the writer mutex —
    /// then publishes the store's numbers for STATS and HEALTH.
    fn as_writer<T>(&self, f: impl FnOnce(Option<&mut Persistence>) -> T) -> T {
        let mut writer = self.writer.lock().expect("writer lock");
        let out = f(writer.as_mut());
        if let Some(p) = writer.as_mut() {
            *self.store_stats.lock().expect("store stats lock") = Some(p.publish());
        }
        out
    }

    /// A put of `hash` to `name` when that is already the member's
    /// current content: nothing to commit.
    fn noop(&self, shared: &Shared, name: &str, hash: u64) -> Option<Committed> {
        let current = shared.members.get(name)?.current();
        (current.hash == hash).then(|| {
            self.counters.noop.fetch_add(1, Ordering::Relaxed);
            Committed {
                generation: shared.generation,
                sequence: current.sequence,
                remaining: shared.members.len(),
                strategy: MergeStrategy::Noop,
            }
        })
    }

    /// The one commit path, run as the writer:
    ///
    /// 1. capture the unchanged members under a brief read lock — the
    ///    writer mutex keeps them fixed from here on;
    /// 2. plan and execute the merge with no view lock held;
    /// 3. append and fsync the WAL record (retrying under the policy);
    /// 4. take the write lock only to apply the mutation and swap in the
    ///    new view;
    /// 5. run a due auto-snapshot.
    fn commit(&self, mutation: Mutation) -> Result<Committed, RegistryError> {
        let started = Instant::now();
        let mut commit_span = telemetry::span("commit");
        if let Mutation::Put { hash, .. } = &mutation {
            commit_span.attr("content_hash", *hash);
        }
        let committed = self.as_writer(|mut persistence| {
            // Checked again as the writer: a commit that queued behind one
            // that degraded the registry must not append.
            self.check_writable()?;
            let (generation, sequence, rest_fp, rest) = {
                let shared = self.shared.read().expect("registry lock");
                let name = mutation.name();
                if let Mutation::Put { hash, .. } = &mutation {
                    if let Some(noop) = self.noop(&shared, name, *hash) {
                        return Ok(noop);
                    }
                } else if !shared.members.contains_key(name) {
                    return Err(RegistryError::UnknownMember(name.to_string()));
                }
                let sequence = shared.members.get(name).map_or(0, |r| r.versions.len()) + 1;
                let rest = shared
                    .members
                    .iter()
                    .filter(|(n, _)| n.as_str() != name)
                    .map(|(n, r)| (n.as_str(), r.current()));
                (
                    shared.generation + 1,
                    sequence as u32,
                    fingerprint(rest.clone().map(|(n, v)| (n, v.hash))),
                    rest.map(|(_, v)| Arc::clone(&v.schema)).collect::<Vec<_>>(),
                )
            };

            let (rest, strategy) = {
                let mut plan_span = telemetry::span("plan");
                plan_span.attr_usize("rest_members", rest.len());
                let (join, strategy) = self
                    .cached_join(rest_fp, rest.iter().map(|s| s.as_ref()))
                    .map_err(|cause| self.reject(mutation.name(), cause))?;
                plan_span.attr("cached", u64::from(strategy == MergeStrategy::Incremental));
                (join, strategy)
            };
            // The incremental step proper, as a merge plan: the cached
            // compiled join is the `onto_base` interner — only a put's
            // member is walked symbolically; a delete has no extra, so
            // the rest IS the new total and only the completion runs.
            let candidate = {
                let mut exec_span = telemetry::span("execute");
                let extra = match &mutation {
                    Mutation::Put { schema, .. } => Some(schema.as_ref()),
                    Mutation::Delete { .. } => None,
                };
                let candidate = merge_onto(&rest, extra, self.merge_threads)
                    .map_err(|cause| self.reject(mutation.name(), cause))?;
                exec_span.attr_usize("classes", candidate.proper.num_classes());
                candidate
            };

            // Durability point: the record is fsync'd before the view
            // state mutates, so a storage failure rejects the commit with
            // the registry untouched, and a crash after this line replays
            // to exactly this state.
            if let Some(p) = persistence.as_deref_mut() {
                let view_hash = candidate.proper.content_hash();
                let record = match &mutation {
                    Mutation::Put { name, schema, hash } => WalRecord::Put {
                        generation,
                        member: name.clone(),
                        hash: *hash,
                        sequence,
                        view_hash,
                        schema: (!p.on_disk.contains(hash)).then(|| Arc::clone(schema)),
                    },
                    Mutation::Delete { name } => WalRecord::Delete {
                        generation,
                        member: name.clone(),
                        view_hash,
                    },
                };
                self.durable_append(p, &wal::encode_frame(&record), generation)?;
                if let Mutation::Put { hash, .. } = &mutation {
                    p.on_disk.insert(*hash);
                }
            }

            let (remaining, full_fp) = {
                let mut shared = self.shared.write().expect("registry lock");
                mutation.apply(&mut shared.members, generation);
                shared.generation = generation;
                shared.proper = candidate.proper;
                shared.report = candidate.report;
                let full_fp = fingerprint(
                    shared
                        .members
                        .iter()
                        .map(|(n, r)| (n.as_str(), r.current().hash)),
                );
                (shared.members.len(), full_fp)
            };
            {
                let mut cache = self.cache.lock().expect("cache lock");
                cache.insert(rest_fp, rest);
                cache.insert(full_fp, candidate.compiled);
            }
            let counter = match strategy {
                MergeStrategy::Full => &self.counters.full,
                _ => &self.counters.incremental,
            };
            counter.fetch_add(1, Ordering::Relaxed);

            // A failed auto-snapshot never fails the commit — it is
            // already durable in the log, and the snapshot is retried at
            // the next commit — but it is counted in
            // [`Health::snapshot_failures`] and recorded as the last
            // storage error. It does not degrade the registry: writes
            // still land in the log.
            if let Some(p) = persistence.filter(|p| p.snapshot_due()) {
                if let Err(err) = self.write_snapshot(p) {
                    self.resilience
                        .snapshot_failures
                        .fetch_add(1, Ordering::Relaxed);
                    self.resilience.note_error(&err);
                }
            }
            Ok(Committed {
                generation,
                sequence,
                remaining,
                strategy,
            })
        })?;
        if committed.strategy != MergeStrategy::Noop {
            commit_span.attr("generation", committed.generation);
            self.metrics.commit_latency.record(started.elapsed());
        }
        Ok(committed)
    }

    /// Snapshots the current state and compacts the log. The caller is
    /// the writer, so no commit interleaves; the view lock is held only
    /// to capture the state, never across the encode or the I/O.
    fn write_snapshot(&self, p: &mut Persistence) -> Result<u64, StorageError> {
        let state = self.shared.read().expect("registry lock").snapshot_state();
        p.write_snapshot(&state)
    }

    /// The compiled join of a member-version set (fingerprint `fp`):
    /// from the cache when that exact set was joined before, otherwise
    /// computed from scratch ([`MergeStrategy::Full`]; the caller seeds
    /// the cache). The from-scratch rebuild is the registry's widest
    /// merge — every member walked at once — so it is exactly the shape
    /// the engine shards: the merger defaults to the machine's
    /// parallelism past the work or input threshold, and
    /// [`crate::RegistryBuilder::merge_threads`] fixes its budget.
    fn cached_join<'a>(
        &self,
        fp: u64,
        schemas: impl IntoIterator<Item = &'a WeakSchema>,
    ) -> Result<(Arc<CompiledSchema>, MergeStrategy), MergeError> {
        if let Some(join) = self.cache.lock().expect("cache lock").probe(fp) {
            return Ok((join, MergeStrategy::Incremental));
        }
        let mut merger = Merger::new().schemas(schemas);
        if let Some(threads) = self.merge_threads {
            merger = merger.threads(threads);
        }
        Ok((
            Arc::new(merger.join()?.into_compiled()),
            MergeStrategy::Full,
        ))
    }

    fn reject(&self, member: &str, cause: MergeError) -> RegistryError {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        RegistryError::Rejected {
            member: member.to_string(),
            cause,
        }
    }
}

/// Executes the incremental merge plan — `extra` joined onto the cached
/// compiled `rest` (or, on the delete path, no extra at all: the rest IS
/// the total and the merger skips the join pass) — into a pre-`Arc`ed
/// candidate view.
pub(crate) fn merge_onto(
    rest: &Arc<CompiledSchema>,
    extra: Option<&WeakSchema>,
    threads: Option<usize>,
) -> Result<Candidate, MergeError> {
    let mut merger = Merger::new().onto_base(rest);
    if let Some(extra) = extra {
        merger = merger.schema(extra);
    }
    if let Some(threads) = threads {
        merger = merger.threads(threads);
    }
    let report = merger.execute()?;
    let compiled = match report.join {
        Some(join) => Arc::new(join.into_compiled()),
        // No extras joined: the caller's rest is already the total join.
        None => Arc::clone(rest),
    };
    Ok(Candidate {
        compiled,
        proper: Arc::new(report.proper),
        report: Arc::new(report.implicit),
    })
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Registry")
            .field("generation", &stats.generation)
            .field("members", &stats.members)
            .field("merged_classes", &stats.merged_classes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(src: &str, label: &str, tgt: &str) -> WeakSchema {
        WeakSchema::builder()
            .arrow(src, label, tgt)
            .build()
            .unwrap()
    }

    #[test]
    fn merge_onto_without_an_extra_reuses_the_rest() {
        // The delete path: no extra joined, so the merger skips the join
        // pass and the candidate's join IS the caller's cached rest.
        let g = schema("Dog", "owner", "Person");
        let rest = Arc::new(Merger::new().schema(&g).join().unwrap().into_compiled());
        let candidate = merge_onto(&rest, None, None).unwrap();
        assert!(Arc::ptr_eq(&candidate.compiled, &rest));
        let extra = schema("Dog", "age", "int");
        let grown = merge_onto(&rest, Some(&extra), None).unwrap();
        assert!(!Arc::ptr_eq(&grown.compiled, &rest));
        assert_eq!(
            grown.proper.as_ref(),
            &Merger::new()
                .schemas([&g, &extra])
                .execute()
                .unwrap()
                .proper
        );
    }

    /// The key invariant: the registry's view equals the one-shot merge
    /// of its current members.
    fn assert_view_matches_oneshot(registry: &Registry) {
        let members = registry.list();
        let schemas: Vec<Arc<WeakSchema>> = members
            .iter()
            .map(|m| registry.get(&m.name).unwrap().schema)
            .collect();
        let oneshot = Merger::new()
            .schemas(schemas.iter().map(|s| s.as_ref()))
            .execute()
            .unwrap();
        let view = registry.merged();
        assert_eq!(view.proper.as_ref(), &oneshot.proper);
        assert_eq!(view.report.as_ref(), &oneshot.implicit);
    }

    #[test]
    fn empty_registry_serves_the_empty_merge() {
        let registry = Registry::new();
        let view = registry.merged();
        assert_eq!(view.generation, 0);
        assert_eq!(view.proper.num_classes(), 0);
        assert!(registry.is_empty());
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn puts_accumulate_and_version() {
        let registry = Registry::new();
        let first = registry
            .put("inv", schema("Part", "price", "money"))
            .unwrap();
        assert_eq!((first.sequence, first.generation), (1, 1));
        let second = registry
            .put("orders", schema("Order", "item", "Part"))
            .unwrap();
        assert_eq!((second.sequence, second.generation), (1, 2));
        let third = registry.put("inv", schema("Part", "weight", "kg")).unwrap();
        assert_eq!((third.sequence, third.generation), (2, 3));

        assert_eq!(registry.len(), 2);
        assert_eq!(registry.history("inv").unwrap().len(), 2);
        let current = registry.get("inv").unwrap();
        assert_eq!(current.sequence, 2);
        assert!(current.schema.contains_class(&Class::named("kg")));
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn republish_same_content_is_a_noop() {
        let registry = Registry::new();
        let g = schema("Part", "price", "money");
        let first = registry.put("inv", g.clone()).unwrap();
        let again = registry.put("inv", g).unwrap();
        assert_eq!(again.strategy, MergeStrategy::Noop);
        assert_eq!(again.generation, first.generation, "no generation spent");
        assert_eq!(again.sequence, first.sequence);
        assert_eq!(registry.history("inv").unwrap().len(), 1);
        assert_eq!(registry.stats().noop_puts, 1);
    }

    #[test]
    fn growth_is_incremental_and_churn_warms_up() {
        let registry = Registry::new();
        // Sequential growth: every put after the first finds the previous
        // total join in the cache.
        registry.put("a", schema("A", "x", "T")).unwrap();
        let b = registry.put("b", schema("B", "x", "T")).unwrap();
        let c = registry.put("c", schema("C", "x", "T")).unwrap();
        assert_eq!(b.strategy, MergeStrategy::Incremental);
        assert_eq!(c.strategy, MergeStrategy::Incremental);

        // First republish of `a` misses ({b,c} was never joined alone)…
        let cold = registry.put("a", schema("A", "y", "U")).unwrap();
        assert_eq!(cold.strategy, MergeStrategy::Full);
        // …and seeds the cache, so churning `a` is incremental from then on.
        let warm = registry.put("a", schema("A", "z", "V")).unwrap();
        assert_eq!(warm.strategy, MergeStrategy::Incremental);
        let stats = registry.stats();
        assert!(stats.incremental_merges >= 3);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn incompatible_publish_is_rejected_without_damage() {
        let registry = Registry::new();
        registry
            .put(
                "up",
                WeakSchema::builder().specialize("A", "B").build().unwrap(),
            )
            .unwrap();
        let before = registry.merged();
        let err = registry
            .put(
                "down",
                WeakSchema::builder().specialize("B", "A").build().unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::Rejected { ref member, .. } if member == "down"));
        let after = registry.merged();
        assert_eq!(after.generation, before.generation);
        assert_eq!(after.proper, before.proper);
        assert!(registry.get("down").is_none());
        assert_eq!(registry.stats().rejected_puts, 1);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn delete_removes_contribution() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        let outcome = registry.delete("a").unwrap();
        assert_eq!(outcome.remaining, 1);
        let view = registry.merged();
        assert!(!view.proper.contains_class(&Class::named("A")));
        assert!(view.proper.contains_class(&Class::named("B")));
        assert_view_matches_oneshot(&registry);

        assert!(matches!(
            registry.delete("a"),
            Err(RegistryError::UnknownMember(_))
        ));
    }

    #[test]
    fn delete_after_publish_hits_the_cache() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        // Publishing `b` cached the rest-join {a}; deleting `b` needs
        // exactly that set.
        let outcome = registry.delete("b").unwrap();
        assert_eq!(outcome.strategy, MergeStrategy::Incremental);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn implicit_classes_flow_through_the_view() {
        let registry = Registry::new();
        registry.put("one", schema("C", "a", "B1")).unwrap();
        registry.put("two", schema("C", "a", "B2")).unwrap();
        let view = registry.merged();
        assert_eq!(view.report.num_implicit(), 1);
        let implicit = Class::implicit([Class::named("B1"), Class::named("B2")]);
        assert!(view.proper.contains_class(&implicit));
        let stats = registry.stats();
        assert_eq!(stats.implicit_classes, 1);
        assert_eq!(stats.merged_hash, view.hash());
    }

    #[test]
    fn schema_space_queries_answer_from_the_merged_view() {
        let registry = Registry::new();
        registry
            .put("dogs", schema("Dog", "owner", "Person"))
            .unwrap();
        registry
            .put(
                "kinds",
                WeakSchema::builder()
                    .specialize("Guide-dog", "Dog")
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let owners = registry.query(&PathQuery::extent("Dog").follow("owner"));
        assert_eq!(owners, [Class::named("Person")].into());
        let dogs = registry.query(&PathQuery::extent("Dog"));
        assert!(dogs.contains(&Class::named("Guide-dog")));
    }

    #[test]
    fn concurrent_writers_converge_to_the_oneshot_merge() {
        let registry = Arc::new(Registry::new());
        let threads = 8;
        let rounds = 6;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    for round in 0..rounds {
                        let name = format!("member-{t}");
                        let g = WeakSchema::builder()
                            .arrow(
                                format!("Shared{}", (t + round) % 3),
                                format!("attr-{t}-{round}"),
                                "T",
                            )
                            .build()
                            .unwrap();
                        registry.put(name, g).unwrap();
                        // Interleave reads to exercise the read path.
                        let _ = registry.merged();
                        let _ = registry.stats();
                    }
                });
            }
        });
        let stats = registry.stats();
        assert_eq!(registry.len(), threads);
        assert_eq!(
            stats.generation,
            stats.incremental_merges + stats.full_merges,
            "every commit spent exactly one generation"
        );
        assert_eq!(stats.generation as usize, threads * rounds);
        assert_view_matches_oneshot(&registry);
    }

    #[test]
    fn merge_threads_budget_never_changes_the_view() {
        for threads in [1, 2, 4] {
            let registry = Registry::builder().merge_threads(threads).open().unwrap();
            for i in 0..6 {
                registry
                    .put(
                        format!("m{i}"),
                        schema(&format!("C{}", i % 3), &format!("f{i}"), "T"),
                    )
                    .unwrap();
            }
            // Cold rebuild path: churn an old member (its rest-join was
            // never cached alone).
            registry.put("m0", schema("C0", "g", "U")).unwrap();
            registry.delete("m3").unwrap();
            assert_view_matches_oneshot(&registry);
        }
    }

    #[test]
    fn latency_histograms_and_request_counter_track_the_service() {
        let registry = Registry::new();
        registry.put("a", schema("A", "x", "T")).unwrap();
        registry.put("b", schema("B", "y", "U")).unwrap();
        // A noop republish spends no generation and records no commit.
        registry.put("a", schema("A", "x", "T")).unwrap();
        let commits = registry.commit_latency();
        assert_eq!(
            commits.count, 2,
            "one sample per generation-spending commit"
        );
        assert!(commits.sum_ns > 0);
        assert_eq!(
            registry.fsync_latency().count,
            0,
            "an in-memory registry never waits on a WAL"
        );
        assert_eq!(registry.recovery_latency().count, 0);

        assert_eq!(registry.stats().requests_served, 0);
        registry.note_request();
        registry.note_request();
        let stats = registry.stats();
        assert_eq!(stats.requests_served, 2);
        assert_eq!(stats.uptime_secs, registry.uptime_secs());
    }

    #[test]
    fn concurrent_same_member_races_serialize() {
        let registry = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for round in 0..8 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let g = schema("X", &format!("v{round}"), "T");
                    registry.put("contended", g).unwrap();
                });
            }
        });
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.history("contended").unwrap().len(), 8);
        assert_view_matches_oneshot(&registry);
    }
}
