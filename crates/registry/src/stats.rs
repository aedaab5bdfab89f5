//! Registry observability: one coherent snapshot of state and counters.

use std::fmt;

/// A point-in-time snapshot of the registry. The sizes and the merged
/// view's shape are read coherently (one read-lock acquisition, so they
/// describe the same generation); the engine counters are monotone
/// relaxed atomics sampled alongside — under concurrent writers they may
/// run slightly ahead of or behind the locked fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Monotone commit counter; bumped by every successful `put`/`delete`.
    pub generation: u64,
    /// Current member count.
    pub members: usize,
    /// Total immutable versions across all members.
    pub total_versions: usize,
    /// Classes in the merged proper schema.
    pub merged_classes: usize,
    /// Arrows (closed) in the merged proper schema.
    pub merged_arrows: usize,
    /// Strict specialization pairs in the merged proper schema.
    pub merged_specializations: usize,
    /// Implicit classes completion introduced in the merged view.
    pub implicit_classes: usize,
    /// Canonical content hash of the merged proper schema.
    pub merged_hash: u64,
    /// Commits that reused a cached rest-join (the incremental path).
    pub incremental_merges: u64,
    /// Commits that re-joined every member from scratch.
    pub full_merges: u64,
    /// Publishes dropped because the content hash was unchanged.
    pub noop_puts: u64,
    /// Publishes rejected as incompatible/inconsistent.
    pub rejected_puts: u64,
    /// Join-cache hits.
    pub cache_hits: u64,
    /// Join-cache misses.
    pub cache_misses: u64,
    /// Join-cache evictions.
    pub cache_evictions: u64,
    /// Join-cache resident entries.
    pub cache_entries: usize,
    /// Whole seconds since this registry instance was opened.
    pub uptime_secs: u64,
    /// Requests this registry has served, as noted by its front end
    /// ([`crate::Registry::note_request`]); monotone, zero when nothing
    /// calls it (e.g. embedded library use).
    pub requests_served: u64,
    /// Whether the registry has a persistence layer (a WAL + snapshot
    /// store). All fields below are zero when it does not.
    pub persistent: bool,
    /// Records currently in the write-ahead log (since the last
    /// compaction).
    pub wal_records: u64,
    /// Bytes currently in the write-ahead log.
    pub wal_bytes: u64,
    /// Generation captured by the newest snapshot (0 = none yet).
    pub snapshot_generation: u64,
    /// Bytes of the newest snapshot object.
    pub snapshot_bytes: u64,
    /// Snapshots written by this process (the session counter, like the
    /// merge counters; it restarts at zero on reopen).
    pub snapshots_written: u64,
    /// Whether the registry is in degraded read-only mode (storage
    /// failures exhausted the retry budget; writes rejected with
    /// `E-DEGRADED` until a probe heals the store).
    pub degraded: bool,
    /// Commit-path storage retries performed under the retry policy.
    pub storage_retries: u64,
}

impl RegistryStats {
    /// Renders the snapshot as one JSON object with a pinned field
    /// order (declaration order). Mirroring [`fmt::Display`], the
    /// durability fields are emitted only when `persistent` is true —
    /// an in-memory registry reports no WAL or snapshot numbers rather
    /// than a misleading row of zeros.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"generation\": {}", self.generation));
        out.push_str(&format!(", \"members\": {}", self.members));
        out.push_str(&format!(", \"total_versions\": {}", self.total_versions));
        out.push_str(&format!(", \"merged_classes\": {}", self.merged_classes));
        out.push_str(&format!(", \"merged_arrows\": {}", self.merged_arrows));
        out.push_str(&format!(
            ", \"merged_specializations\": {}",
            self.merged_specializations
        ));
        out.push_str(&format!(
            ", \"implicit_classes\": {}",
            self.implicit_classes
        ));
        out.push_str(&format!(", \"merged_hash\": \"{:016x}\"", self.merged_hash));
        out.push_str(&format!(
            ", \"incremental_merges\": {}",
            self.incremental_merges
        ));
        out.push_str(&format!(", \"full_merges\": {}", self.full_merges));
        out.push_str(&format!(", \"noop_puts\": {}", self.noop_puts));
        out.push_str(&format!(", \"rejected_puts\": {}", self.rejected_puts));
        out.push_str(&format!(", \"cache_hits\": {}", self.cache_hits));
        out.push_str(&format!(", \"cache_misses\": {}", self.cache_misses));
        out.push_str(&format!(", \"cache_evictions\": {}", self.cache_evictions));
        out.push_str(&format!(", \"cache_entries\": {}", self.cache_entries));
        out.push_str(&format!(", \"uptime_secs\": {}", self.uptime_secs));
        out.push_str(&format!(", \"requests_served\": {}", self.requests_served));
        out.push_str(&format!(", \"persistent\": {}", self.persistent));
        if self.persistent {
            out.push_str(&format!(", \"wal_records\": {}", self.wal_records));
            out.push_str(&format!(", \"wal_bytes\": {}", self.wal_bytes));
            out.push_str(&format!(
                ", \"snapshot_generation\": {}",
                self.snapshot_generation
            ));
            out.push_str(&format!(", \"snapshot_bytes\": {}", self.snapshot_bytes));
            out.push_str(&format!(
                ", \"snapshots_written\": {}",
                self.snapshots_written
            ));
            out.push_str(&format!(", \"degraded\": {}", self.degraded));
            out.push_str(&format!(", \"storage_retries\": {}", self.storage_retries));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for RegistryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "generation {} | members {} | versions {}",
            self.generation, self.members, self.total_versions
        )?;
        writeln!(
            f,
            "merged: {} classes, {} arrows, {} specializations, {} implicit, hash {:016x}",
            self.merged_classes,
            self.merged_arrows,
            self.merged_specializations,
            self.implicit_classes,
            self.merged_hash,
        )?;
        writeln!(
            f,
            "merges: {} incremental, {} full, {} no-op, {} rejected",
            self.incremental_merges, self.full_merges, self.noop_puts, self.rejected_puts,
        )?;
        writeln!(
            f,
            "join cache: {} entries, {} hits, {} misses, {} evictions",
            self.cache_entries, self.cache_hits, self.cache_misses, self.cache_evictions,
        )?;
        write!(
            f,
            "service: up {} s, {} requests served",
            self.uptime_secs, self.requests_served,
        )?;
        if self.persistent {
            write!(
                f,
                "\ndurability: wal {} records ({} B), snapshot gen {} ({} B), {} written this run",
                self.wal_records,
                self.wal_bytes,
                self.snapshot_generation,
                self.snapshot_bytes,
                self.snapshots_written,
            )?;
            write!(
                f,
                "\nhealth: {}, {} storage retries",
                if self.degraded {
                    "degraded (read-only)"
                } else {
                    "ok"
                },
                self.storage_retries,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegistryStats {
        RegistryStats {
            generation: 7,
            members: 3,
            total_versions: 9,
            merged_classes: 11,
            merged_arrows: 13,
            merged_specializations: 2,
            implicit_classes: 1,
            merged_hash: 0x00ab_cdef_0123_4567,
            incremental_merges: 5,
            full_merges: 2,
            noop_puts: 1,
            rejected_puts: 0,
            cache_hits: 5,
            cache_misses: 2,
            cache_evictions: 0,
            cache_entries: 4,
            uptime_secs: 42,
            requests_served: 100,
            persistent: false,
            wal_records: 0,
            wal_bytes: 0,
            snapshot_generation: 0,
            snapshot_bytes: 0,
            snapshots_written: 0,
            degraded: false,
            storage_retries: 0,
        }
    }

    /// The JSON field order is part of the wire contract: clients parse
    /// positionally at their peril, but goldens and diffs depend on it
    /// being stable, so it is pinned here verbatim.
    #[test]
    fn json_field_order_is_pinned() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\"generation\": 7, \"members\": 3, \"total_versions\": 9, \
             \"merged_classes\": 11, \"merged_arrows\": 13, \
             \"merged_specializations\": 2, \"implicit_classes\": 1, \
             \"merged_hash\": \"00abcdef01234567\", \
             \"incremental_merges\": 5, \"full_merges\": 2, \
             \"noop_puts\": 1, \"rejected_puts\": 0, \"cache_hits\": 5, \
             \"cache_misses\": 2, \"cache_evictions\": 0, \
             \"cache_entries\": 4, \"uptime_secs\": 42, \"requests_served\": 100, \
             \"persistent\": false}"
        );
    }

    /// Durability fields appear exactly when `persistent` — the JSON
    /// mirrors the Display gating instead of printing dead zeros.
    #[test]
    fn json_gates_durability_fields_on_persistent() {
        let mut stats = sample();
        assert!(!stats.to_json().contains("wal_records"));

        stats.persistent = true;
        stats.wal_records = 12;
        stats.wal_bytes = 3456;
        stats.snapshot_generation = 5;
        stats.snapshot_bytes = 789;
        stats.snapshots_written = 2;
        stats.storage_retries = 4;
        let json = stats.to_json();
        assert!(json.ends_with(
            "\"persistent\": true, \"wal_records\": 12, \"wal_bytes\": 3456, \
             \"snapshot_generation\": 5, \"snapshot_bytes\": 789, \
             \"snapshots_written\": 2, \"degraded\": false, \
             \"storage_retries\": 4}"
        ));
    }

    #[test]
    fn display_gates_durability_and_reports_service_line() {
        let mut stats = sample();
        let text = stats.to_string();
        assert!(text.contains("service: up 42 s, 100 requests served"));
        assert!(!text.contains("durability:"));
        stats.persistent = true;
        assert!(stats.to_string().contains("durability:"));
    }
}
