//! Per-layer metrics from traced replays: self times and allocation
//! counts per call, reduced from the spans, plus the serve layer's share
//! as the client-observed median minus the replay's.

use std::collections::BTreeMap;
use std::path::Path;

use schema_merge_core::{Merger, WeakSchema};

use crate::inputs::{Req, ServeInputs, Verb};
use crate::replay::{merged_during_commit_p90_us, run_pass, Replayer};
use crate::report::{median, Metric, Outcome};
use crate::serve::{latencies_ms, Sample};
use crate::trace::{self, self_costs, span, Span};

/// Every per-layer metric, in report order, with its unit. A run prints
/// all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("serve.put_residual_ms", "ms"),
    ("serve.merged_residual_ms", "ms"),
    ("serve.get_residual_ms", "ms"),
    ("serve.query_residual_ms", "ms"),
    ("serve.compose_residual_ms", "ms"),
    ("serve.merged_response_bytes", "bytes"),
    ("protocol.command_parse_us", "us"),
    ("protocol.block_collect_us", "us"),
    ("protocol.encode_block_us", "us"),
    ("text.parse_document_ms", "ms"),
    ("text.parse_document_allocs", "count"),
    ("text.print_schema_ms", "ms"),
    ("text.print_schema_allocs", "count"),
    ("core.payload_join_ms", "ms"),
    ("core.payload_join_allocs", "count"),
    ("core.full_merge_ms", "ms"),
    ("core.full_merge_allocs", "count"),
    ("registry.put_ms", "ms"),
    ("registry.put_self_ms", "ms"),
    ("registry.put_allocs", "count"),
    ("registry.merged_us", "us"),
    ("registry.get_us", "us"),
    ("registry.query_ms", "ms"),
    ("registry.cache_hit_ratio", "ratio"),
    ("registry.merged_during_commit_p90_us", "us"),
    ("storage.append_ms", "ms"),
    ("storage.append_calls", "count"),
    ("storage.snapshot_ms", "ms"),
    ("storage.snapshots", "count"),
    ("storage.read_log_ms", "ms"),
    ("storage.bytes_per_user_byte", "ratio"),
    ("supergraph.compose_ms", "ms"),
    ("supergraph.composed_us", "us"),
    ("supergraph.incremental_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Requests replayed at most, so a faster daemon does not stretch the
/// traced run.
const REPLAY_CAP: usize = 1000;
/// One-shot merges over the final member set.
const FULL_MERGES: usize = 3;
/// Request id of spans recorded outside the replayed stream.
pub const AUX_REQUEST: u64 = u64::MAX;

/// Largest share of a request's replay time that may fall in the handler
/// span itself, outside every layer span under it. More means a layer
/// the handler calls went untimed, so its time would not be attributed.
const MAX_UNATTRIBUTED: f64 = 0.10;
/// Unattributed time of a request (µs) below which the share is not
/// checked: the tracer's own cost and the handler's bookkeeping come to a
/// few µs, a large share of a request as cheap as QUERY.
const UNATTRIBUTED_FLOOR_US: f64 = 5.0;

/// Whether a request whose handler span has `self_ns` of its `total_ns`
/// outside every layer span shows a layer call without a span. Applied
/// to a verb's median request, so a preemption inside one handler does
/// not fail the run.
fn unattributed_too_high(share: f64, self_us: f64) -> bool {
    share > MAX_UNATTRIBUTED && self_us > UNATTRIBUTED_FLOOR_US
}

/// Per-call figures of one span name.
#[derive(Default)]
pub struct Calls {
    pub total_ns: Vec<f64>,
    pub self_ns: Vec<f64>,
    pub allocs: Vec<f64>,
}

impl Calls {
    pub fn median_total(&self, scale: f64) -> f64 {
        median(&self.total_ns).map_or(0.0, |v| v / scale)
    }

    pub fn median_self(&self, scale: f64) -> f64 {
        median(&self.self_ns).map_or(0.0, |v| v / scale)
    }

    pub fn median_allocs(&self) -> f64 {
        median(&self.allocs).unwrap_or(0.0)
    }
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Calls> {
    let costs = self_costs(spans);
    let mut out: BTreeMap<&'static str, Calls> = BTreeMap::new();
    for (span, (self_ns, _)) in spans.iter().zip(costs) {
        let calls = out.entry(span.name).or_default();
        calls.total_ns.push(span.duration_ns() as f64);
        calls.self_ns.push(self_ns as f64);
        calls.allocs.push(span.allocs as f64);
    }
    out
}

/// Appends `more` to `spans`, renumbering its parent links.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Spans whose own code inserts into a join cache. `JoinCache` keeps its
/// entries in a std `HashMap`, whose hash keys are drawn at random for
/// each thread. Evictions leave tombstones where the keys put them, so
/// which insert finds the table full and grows it differs between two
/// replays of one stream: one call of such a span may make one
/// allocation more or less than the same call in the other replay.
const JOIN_CACHE_INSERTERS: [&str; 2] = ["registry.put", "supergraph.compose"];

/// Allocations by which one call of `name` may differ between two
/// replays of one stream: one table growth in a join-cache inserter,
/// none anywhere else.
fn allowed_alloc_drift(name: &str) -> u64 {
    u64::from(JOIN_CACHE_INSERTERS.contains(&name))
}

/// Checks that two traced replays of one stream made the same
/// allocations span by span (self counts, so a difference is reported at
/// the span that made it rather than at its parents), up to the join
/// cache's table growth. Notes how many calls differed at all.
pub fn check_allocs_repeat(first: &[Span], second: &[Span], outcome: &mut Outcome) {
    if first.len() != second.len() || first.iter().zip(second).any(|(a, b)| a.name != b.name) {
        outcome.failed_checks.push(format!(
            "two traced replays of one stream recorded different spans ({} and {})",
            first.len(),
            second.len()
        ));
        return;
    }
    let pairs = self_costs(first).into_iter().zip(self_costs(second));
    let differing: Vec<(&Span, u64, u64)> = first
        .iter()
        .zip(pairs)
        .filter(|(_, ((_, a), (_, b)))| a != b)
        .map(|(span, ((_, a), (_, b)))| (span, a, b))
        .collect();
    outcome.notes.push(Metric::new(
        "replay.alloc_drift_calls",
        differing.len() as f64,
        "count",
    ));
    if let Some((span, a, b)) = differing
        .into_iter()
        .find(|(span, a, b)| a.abs_diff(*b) > allowed_alloc_drift(span.name))
    {
        outcome.failed_checks.push(format!(
            "allocation counts differ between two traced replays: {} of request {} made {a} then {b}",
            span.name, span.request
        ));
    }
}

/// Fills the per-layer metrics from `values`; names it lacks read 0.
pub fn emit(values: &BTreeMap<&'static str, f64>, outcome: &mut Outcome) {
    outcome.metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric::new(*name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
}

/// Writes spans as JSON lines under the work directory.
pub fn write_spans(work: &Path, spans: &[Span]) -> Result<(), String> {
    let path = work.join("spans.jsonl");
    std::fs::write(&path, trace::to_json_lines(spans))
        .map_err(|err| format!("writing {}: {err}", path.display()))
}

/// One-shot merges over the replayer's final member set: the shape of
/// recovery and of a join-cache miss. Each must equal the served view.
fn full_merges(
    replayer: &Replayer,
    threads: Option<usize>,
    outcome: &mut Outcome,
) -> Result<(u64, Vec<Span>), String> {
    let served = if replayer.supergraph.len() > 1 {
        replayer
            .supergraph
            .compose()
            .map_err(|err| format!("final replay compose: {err}"))?
            .view
            .hash()
    } else {
        replayer.registry.merged().hash()
    };
    let schemas = replayer.current_schemas();
    let refs: Vec<&WeakSchema> = schemas.iter().map(|s| s.as_ref()).collect();
    trace::start();
    trace::set_request(AUX_REQUEST);
    for _ in 0..FULL_MERGES {
        let mut merger = Merger::new().schemas(refs.iter().copied());
        if let Some(threads) = threads {
            merger = merger.threads(threads);
        }
        let report = span("core.full_merge", || merger.execute())
            .map_err(|err| format!("one-shot merge of the replay's members: {err}"))?;
        outcome.check(report.proper.content_hash() == served, || {
            "the replay's served view differs from the one-shot merge of its members".to_string()
        });
    }
    Ok((served, trace::stop()))
}

/// A traced replay with one merge thread, followed by the one-shot
/// merges, on a thread of its own: the engine's thread-local scratch
/// pools start empty, as in a fresh process, so the allocation counts do
/// not depend on what ran before.
fn counted_pass(
    inputs: &ServeInputs,
    stream: &[Req],
    data_dir: Option<&Path>,
    outcome: &mut Outcome,
) -> Result<Vec<Span>, String> {
    let (failures, result) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut failures = Outcome::default();
                let result = run_pass(inputs, stream, data_dir, Some(1), true).and_then(|pass| {
                    let (_, full) = full_merges(&pass.replayer, Some(1), &mut failures)?;
                    failures.failed_checks.extend(pass.failures);
                    let mut spans = pass.spans;
                    append(&mut spans, full);
                    Ok(spans)
                });
                (failures.failed_checks, result)
            })
            .join()
            .expect("the replay thread does not panic")
    });
    outcome.failed_checks.extend(failures);
    result
}

/// The traced run of a serve workload, reduced to the per-layer metrics:
///
/// * a traced replay with the daemon's thread budget gives the timings;
/// * two traced replays with one merge thread give the allocation
///   counts, which must repeat (exactly, but for join-cache growth);
/// * a plain replay gives the tracing overhead;
/// * after the first replay, one-shot merges of the final member set
///   and, when durable, recovery of its data directory;
/// * the reader-during-commit probe.
pub fn measure(
    inputs: &ServeInputs,
    samples: &[Sample],
    work: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let stream: Vec<Req> = samples
        .iter()
        .take(REPLAY_CAP)
        .map(|s| s.req.clone())
        .collect();
    let durable = inputs.workload.durable();
    // The work directory starts empty each run; durable passes each get a
    // data directory of their own in it.
    let dir = |name: &str| durable.then(|| work.join(name));
    let timed_dir = dir("replay-timed");
    let timed = run_pass(inputs, &stream, timed_dir.as_deref(), None, true)?;
    let counted = counted_pass(inputs, &stream, dir("replay-counted-1").as_deref(), outcome)?;
    let recounted = counted_pass(inputs, &stream, dir("replay-counted-2").as_deref(), outcome)?;
    let plain = run_pass(inputs, &stream, dir("replay-plain").as_deref(), None, false)?;
    for pass in [&timed, &plain] {
        outcome.failed_checks.extend(pass.failures.iter().cloned());
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traffic = by_name(&timed.spans);

    // The serve layer's share per verb, and the check that the layer spans
    // cover the handler's time.
    let costs = self_costs(&timed.spans);
    for (verb, key) in [
        (Verb::Put, "serve.put_residual_ms"),
        (Verb::Merged, "serve.merged_residual_ms"),
        (Verb::Get, "serve.get_residual_ms"),
        (Verb::Query, "serve.query_residual_ms"),
        (Verb::Compose, "serve.compose_residual_ms"),
        (Verb::Supergraph, ""),
    ] {
        let client = latencies_ms(samples, verb);
        let Some(client_p50) = median(&client) else {
            continue;
        };
        let mut roots = Vec::new();
        // Per request, the handler span's self time: replay time that no
        // layer span under it accounts for.
        let mut unattributed_shares = Vec::new();
        let mut unattributed_us = Vec::new();
        let mut layer_self: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, (self_ns, _)) in timed.spans.iter().zip(&costs) {
            if stream[span.request as usize].verb() != verb {
                continue;
            }
            if span.parent.is_none() {
                roots.push(span.duration_ns() as f64 / 1e6);
                unattributed_shares.push(*self_ns as f64 / span.duration_ns().max(1) as f64);
                unattributed_us.push(*self_ns as f64 / 1e3);
            }
            *layer_self.entry(span.name).or_default() += *self_ns as f64;
        }
        let Some(replay_p50) = median(&roots) else {
            continue;
        };
        let residual = client_p50 - replay_p50;
        let name = verb.name();
        outcome.check(residual >= 0.0, || {
            format!("{name}: client p50 {client_p50:.4} ms is below the replay's {replay_p50:.4} ms; the replay diverged")
        });
        let share = median(&unattributed_shares).unwrap_or(0.0);
        let self_us = median(&unattributed_us).unwrap_or(0.0);
        outcome.check(!unattributed_too_high(share, self_us), || {
            format!(
                "{name}: the median request spends {:.1}% of its replay time ({self_us:.1} µs) \
                 in no layer span, at most {:.0}% or {UNATTRIBUTED_FLOOR_US} µs allowed; a \
                 layer call has no span",
                share * 100.0,
                MAX_UNATTRIBUTED * 100.0
            )
        });
        outcome.notes.push(
            Metric::new(format!("{name}.unattributed_pct"), share * 100.0, "%")
                .with_samples(roots.len()),
        );
        if !key.is_empty() {
            values.insert(key, residual);
        }
        outcome.notes.push(
            Metric::new(format!("{name}.client_p50_ms"), client_p50, "ms")
                .with_samples(client.len()),
        );
        outcome.notes.push(
            Metric::new(format!("{name}.replay_p50_ms"), replay_p50, "ms")
                .with_samples(roots.len()),
        );
        outcome.notes.push(Metric::new(
            format!("{name}.serve_residual_ms"),
            residual,
            "ms",
        ));
        for (layer, total) in layer_self {
            outcome.notes.push(Metric::new(
                format!("{name}.self_mean_ms.{layer}"),
                total / roots.len() as f64 / 1e6,
                "ms",
            ));
        }
    }
    let merged_bytes: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && s.req.verb() == Verb::Merged)
        .map(|s| s.bytes as f64)
        .collect();
    values.insert(
        "serve.merged_response_bytes",
        median(&merged_bytes).unwrap_or(0.0),
    );

    for (key, name, scale) in [
        ("protocol.command_parse_us", "protocol.command_parse", 1e3),
        ("protocol.block_collect_us", "protocol.block_collect", 1e3),
        ("protocol.encode_block_us", "protocol.encode_block", 1e3),
        ("text.parse_document_ms", "text.parse_document", 1e6),
        ("text.print_schema_ms", "text.print_schema", 1e6),
        ("core.payload_join_ms", "core.payload_join", 1e6),
        ("registry.put_ms", "registry.put", 1e6),
        ("registry.merged_us", "registry.merged", 1e3),
        ("registry.get_us", "registry.get", 1e3),
        ("registry.query_ms", "registry.query", 1e6),
        ("storage.append_ms", "storage.append", 1e6),
        ("storage.snapshot_ms", "storage.snapshot", 1e6),
        ("supergraph.compose_ms", "supergraph.compose", 1e6),
        ("supergraph.composed_us", "supergraph.composed", 1e3),
    ] {
        if let Some(calls) = traffic.get(name) {
            values.insert(key, calls.median_total(scale));
        }
    }
    if let Some(calls) = traffic.get("registry.put") {
        values.insert("registry.put_self_ms", calls.median_self(1e6));
    }
    let count = |name: &str| traffic.get(name).map_or(0.0, |c| c.total_ns.len() as f64);
    values.insert("storage.append_calls", count("storage.append"));
    values.insert("storage.snapshots", count("storage.snapshot"));
    if durable && timed.put_payload_bytes > 0 {
        values.insert(
            "storage.bytes_per_user_byte",
            timed.stored_bytes as f64 / timed.put_payload_bytes as f64,
        );
    }
    let ratio = |(inc, full): (u64, u64)| {
        if inc + full == 0 {
            0.0
        } else {
            inc as f64 / (inc + full) as f64
        }
    };
    values.insert("registry.cache_hit_ratio", ratio(timed.commits));
    values.insert("supergraph.incremental_ratio", ratio(timed.composes));
    let plain_wall = plain.wall.as_secs_f64();
    values.insert(
        "trace.overhead_pct",
        (timed.wall.as_secs_f64() - plain_wall) / plain_wall.max(1e-9) * 100.0,
    );

    let (served, full_timed) = full_merges(&timed.replayer, None, outcome)?;
    if let Some(calls) = by_name(&full_timed).get("core.full_merge") {
        values.insert("core.full_merge_ms", calls.median_total(1e6));
    }
    let mut spans = timed.spans;
    append(&mut spans, full_timed);

    // Allocation counts, from the single-threaded replays.
    check_allocs_repeat(&counted, &recounted, outcome);
    let allocs = by_name(&counted);
    for (key, name) in [
        ("text.parse_document_allocs", "text.parse_document"),
        ("text.print_schema_allocs", "text.print_schema"),
        ("core.payload_join_allocs", "core.payload_join"),
        ("core.full_merge_allocs", "core.full_merge"),
        ("registry.put_allocs", "registry.put"),
    ] {
        if let Some(calls) = allocs.get(name) {
            values.insert(key, calls.median_allocs());
        }
    }

    // Recovery of the timed replay's data directory.
    if let Some(dir) = &timed_dir {
        drop(timed.replayer);
        trace::start();
        trace::set_request(AUX_REQUEST);
        let reopened = span("registry.open", || Replayer::open(Some(dir), None))?;
        let recovery = trace::stop();
        outcome.check(reopened.registry.merged().hash() == served, || {
            "the replay's registry recovered a different merged view".to_string()
        });
        let boot = by_name(&recovery);
        if let Some(calls) = boot.get("storage.read_log") {
            values.insert("storage.read_log_ms", calls.median_total(1e6));
        }
        if let Some(calls) = boot.get("registry.open") {
            outcome.notes.push(Metric::new(
                "registry.open_ms",
                calls.median_total(1e6),
                "ms",
            ));
        }
        append(&mut spans, recovery);
    }

    if let Some(p90) = merged_during_commit_p90_us(inputs, &stream, dir("replay-probe").as_deref())?
    {
        values.insert("registry.merged_during_commit_p90_us", p90);
    }
    outcome
        .notes
        .push(Metric::new("replay.requests", stream.len() as f64, "count"));
    write_spans(work, &spans)?;
    emit(&values, outcome);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{check_allocs_repeat, unattributed_too_high, PER_LAYER};
    use crate::report::Outcome;
    use crate::trace::{self_costs, Span};

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    /// Whether one request, its handler span first, fails the check.
    fn flagged(spans: &[Span]) -> bool {
        let self_ns = self_costs(spans)[0].0 as f64;
        unattributed_too_high(self_ns / spans[0].duration_ns() as f64, self_ns / 1e3)
    }

    /// A handler whose layer calls all have spans passes; one that spends
    /// a large share of a material time outside them fails; a few µs of
    /// bookkeeping in a cheap request pass.
    #[test]
    fn unattributed_time_flags_untimed_layer_calls() {
        assert!(!flagged(&[
            span("serve.handler", None, 0, 1_000_000),
            span("registry.merged", Some(0), 10_000, 400_000),
            span("text.print_schema", Some(0), 400_000, 980_000),
        ]));
        assert!(flagged(&[
            span("serve.handler", None, 0, 1_000_000),
            span("registry.merged", Some(0), 10_000, 400_000),
        ]));
        assert!(!flagged(&[
            span("serve.handler", None, 0, 20_000),
            span("registry.query", Some(0), 1_000, 17_000),
        ]));
    }

    /// Whether two one-span replays whose span made `a` and then `b`
    /// allocations fail the repeat check.
    fn drift_fails(name: &'static str, a: u64, b: u64) -> bool {
        let replay = |allocs| {
            vec![Span {
                allocs,
                ..span(name, None, 0, 1_000)
            }]
        };
        let mut outcome = Outcome::default();
        check_allocs_repeat(&replay(a), &replay(b), &mut outcome);
        !outcome.failed_checks.is_empty()
    }

    /// Allocation counts must repeat exactly, except that a join-cache
    /// inserter may differ by the one allocation of a table growth.
    #[test]
    fn allocation_counts_repeat_up_to_join_cache_growth() {
        assert!(!drift_fails("text.parse_document", 3427, 3427));
        assert!(drift_fails("text.parse_document", 3427, 3428));
        assert!(drift_fails("core.full_merge", 3825, 3824));
        assert!(!drift_fails("supergraph.compose", 18008, 18009));
        assert!(!drift_fails("registry.put", 3413, 3412));
        assert!(drift_fails("registry.put", 3412, 3414));
    }

    /// The metrics a traced run prints are the ones the benchmark
    /// description declares, with the same units.
    #[test]
    fn per_layer_metrics_match_the_benchmark_description() {
        let description = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                description.contains(&entry),
                "{name} [{unit}] is not declared"
            );
        }
        assert_eq!(
            description.matches("\"better\"").count(),
            PER_LAYER.len() + 4,
            "every declared metric is printed"
        );
    }
}
