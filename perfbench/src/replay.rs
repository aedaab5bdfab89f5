//! The in-process replay: the request stream a serve workload sent over
//! TCP, driven in the same order through the same public functions the
//! daemon's handlers call (`Command::parse` → `BlockCollector` →
//! `parse_document` → `Merger::join` → `Registry::put` for PUT,
//! `Registry::merged` → `print_schema` → `encode_block` for MERGED, and
//! so on), with a span around each call. Storage is timed through a
//! [`Store`] wrapper around [`LocalStore`] handed in via
//! `RegistryBuilder::store`.
//!
//! The daemon's request loop, socket I/O and response writes are not a
//! library, so they are not replayed; their share is what the client saw
//! minus what the replay spent.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use schema_merge_core::{AnnotatedSchema, Class, KeyAssignment, Merger, WeakSchema};
use schema_merge_instance::PathQuery;
use schema_merge_registry::storage::{LocalStore, StorageError, Store};
use schema_merge_registry::{MergedView, Registry, RetryPolicy};
use schema_merge_supergraph::Supergraph;
use schema_merge_text::protocol::{status_line, BlockCollector, Command, Status};
use schema_merge_text::{encode_block, parse_document, print_schema, NamedSchema};

use crate::client::detail_field;
use crate::inputs::{Req, ServeInputs};
use crate::report::percentile;
use crate::trace::{self, span};

/// Byte and call counts of the storage layer.
#[derive(Default)]
pub struct StoreCounters {
    pub appended_bytes: AtomicU64,
    pub snapshot_bytes: AtomicU64,
}

/// [`LocalStore`] with a span around every call that does I/O.
pub struct TimedStore {
    inner: LocalStore,
    counters: Arc<StoreCounters>,
}

impl Store for TimedStore {
    fn append(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        self.counters
            .appended_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        span("storage.append", || self.inner.append(frame))
    }

    fn read_log(&mut self) -> Result<Vec<u8>, StorageError> {
        span("storage.read_log", || self.inner.read_log())
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), StorageError> {
        span("storage.truncate_log", || self.inner.truncate_log(len))
    }

    fn log_bytes(&self) -> Result<u64, StorageError> {
        self.inner.log_bytes()
    }

    fn write_snapshot(&mut self, generation: u64, image: &[u8]) -> Result<(), StorageError> {
        self.counters
            .snapshot_bytes
            .fetch_add(image.len() as u64, Ordering::Relaxed);
        span("storage.snapshot", || {
            self.inner.write_snapshot(generation, image)
        })
    }

    fn read_snapshot(&mut self, generation: u64) -> Result<Vec<u8>, StorageError> {
        span("storage.read_snapshot", || {
            self.inner.read_snapshot(generation)
        })
    }

    fn list_snapshots(&mut self) -> Result<Vec<u64>, StorageError> {
        self.inner.list_snapshots()
    }

    fn remove_snapshot(&mut self, generation: u64) -> Result<(), StorageError> {
        span("storage.remove_snapshot", || {
            self.inner.remove_snapshot(generation)
        })
    }
}

/// The daemon's state, built the way `smerge serve` builds it: one
/// registry (durable through [`TimedStore`] when the workload is) and a
/// supergraph with that registry attached as `default`.
pub struct Replayer {
    pub registry: Arc<Registry>,
    pub supergraph: Supergraph,
    pub store: Arc<StoreCounters>,
}

/// The namespace `smerge serve` attaches its own registry under.
const DEFAULT_REGISTRY: &str = "default";

impl Replayer {
    /// Opens the state; `threads` fixes the merge-thread budget (the
    /// daemon leaves it to the engine).
    pub fn open(data_dir: Option<&Path>, threads: Option<usize>) -> Result<Replayer, String> {
        let store = Arc::new(StoreCounters::default());
        let mut builder = Registry::builder();
        if let Some(threads) = threads {
            builder = builder.merge_threads(threads);
        }
        if let Some(dir) = data_dir {
            let local = LocalStore::open(dir).map_err(|err| format!("opening store: {err}"))?;
            builder = builder
                .store(TimedStore {
                    inner: local,
                    counters: Arc::clone(&store),
                })
                .retry_policy(RetryPolicy::new(3));
        }
        let registry = Arc::new(
            builder
                .open()
                .map_err(|err| format!("opening registry: {err}"))?,
        );
        let supergraph = threads.map_or_else(Supergraph::new, Supergraph::with_threads);
        supergraph
            .attach(DEFAULT_REGISTRY, Arc::clone(&registry))
            .map_err(|err| format!("attaching the default registry: {err}"))?;
        Ok(Replayer {
            registry,
            supergraph,
            store,
        })
    }

    /// Every attached registry, the default one first.
    pub fn registries(&self) -> Vec<Arc<Registry>> {
        let mut out = vec![Arc::clone(&self.registry)];
        for name in self.supergraph.names() {
            if name != DEFAULT_REGISTRY {
                out.extend(self.supergraph.registry(&name));
            }
        }
        out
    }

    /// Incremental and full commits across every registry.
    pub fn commit_counts(&self) -> (u64, u64) {
        self.registries().iter().fold((0, 0), |(inc, full), r| {
            let stats = r.stats();
            (inc + stats.incremental_merges, full + stats.full_merges)
        })
    }

    /// The current version of every member of every registry.
    pub fn current_schemas(&self) -> Vec<Arc<WeakSchema>> {
        self.registries()
            .iter()
            .flat_map(|r| r.current_members())
            .map(|(_, version)| version.schema)
            .collect()
    }

    /// Handles one request's wire bytes; returns the reply's bytes.
    pub fn handle(&self, wire: &str) -> String {
        span("serve.handler", || self.dispatch(wire))
    }

    pub fn route(&self, name: &str) -> Result<(Arc<Registry>, String), String> {
        match name.split_once('/') {
            None => Ok((Arc::clone(&self.registry), name.to_string())),
            Some((namespace, member)) => match self.supergraph.registry(namespace) {
                Some(routed) => Ok((routed, member.to_string())),
                None => Err(format!("no registry `{namespace}` is attached")),
            },
        }
    }

    fn dispatch(&self, wire: &str) -> String {
        let mut lines = wire.lines();
        let line = lines.next().unwrap_or_default();
        let command = match span("protocol.command_parse", || Command::parse(line)) {
            Ok(command) => command,
            Err(err) => return err_line(&err.to_string()),
        };
        self.registry.note_request();
        match command {
            Command::Put(name) => {
                let payload = span("protocol.block_collect", || {
                    let mut collector = BlockCollector::new();
                    for payload_line in lines.by_ref() {
                        if collector.push(payload_line) {
                            break;
                        }
                    }
                    collector.finish()
                });
                match self.route(&name) {
                    Ok((routed, member)) => put_member(&routed, &member, &payload),
                    Err(detail) => err_line(&detail),
                }
            }
            Command::Get(name) => match self.route(&name) {
                Err(detail) => err_line(&detail),
                Ok((routed, member)) => match span("registry.get", || routed.get(&member)) {
                    Some(version) => {
                        let printed = span("serve.view_copy", || {
                            let doc = NamedSchema {
                                name: member,
                                schema: AnnotatedSchema::all_required(
                                    version.schema.as_ref().clone(),
                                ),
                                keys: KeyAssignment::new(),
                            };
                            span("text.print_schema", || print_schema(&doc))
                        });
                        let detail = format!(
                            "hash={:016x} sequence={} generation={}",
                            version.hash, version.sequence, version.generation
                        );
                        data_reply(&detail, &printed)
                    }
                    None => err_line(&format!("no member named `{name}`")),
                },
            },
            Command::Merged => {
                let view = span("registry.merged", || self.registry.merged());
                let detail = merged_detail(&view);
                let mut payload = span("serve.view_copy", || {
                    let doc = NamedSchema {
                        name: "merged".into(),
                        schema: AnnotatedSchema::all_required(view.proper.as_weak().clone()),
                        keys: KeyAssignment::new(),
                    };
                    span("text.print_schema", || print_schema(&doc))
                });
                payload.push_str(&format!(
                    "// implicit classes: {}\n",
                    view.report.num_implicit()
                ));
                data_reply(&detail, &payload)
            }
            Command::Query(path) => match span("serve.parse_path", || parse_path(&path)) {
                Some(query) => {
                    let classes = span("registry.query", || self.registry.query(&query));
                    span("serve.query_reply", || {
                        let rendered: Vec<String> =
                            classes.iter().map(|c| c.to_string()).collect();
                        let detail =
                            format!("{} result(s): {}", rendered.len(), rendered.join(", "));
                        status_line(Status::Ok, detail.trim_end())
                    })
                }
                None => err_line(&format!("bad path `{path}`")),
            },
            Command::Attach(name) => match self.supergraph.attach_new(&name) {
                Ok(_) => status_line(
                    Status::Ok,
                    &format!("registry={name} registries={}", self.supergraph.len()),
                ),
                Err(err) => err_line(&err.to_string()),
            },
            Command::Compose => match span("supergraph.compose", || self.supergraph.compose()) {
                Ok(outcome) => {
                    let weak = outcome.view.proper().as_weak();
                    status_line(
                        Status::Ok,
                        &format!(
                            "generation={} strategy={} registries={} classes={} arrows={} hints={}",
                            outcome.generation,
                            outcome.strategy.as_str(),
                            outcome.view.members.len(),
                            weak.num_classes(),
                            weak.num_arrows(),
                            outcome.view.hints().count()
                        ),
                    )
                }
                Err(err) => err_line(&err.to_string()),
            },
            Command::Supergraph => {
                let view = span("supergraph.composed", || self.supergraph.composed());
                let weak = view.proper().as_weak();
                let detail = format!(
                    "generation={} registries={} classes={} arrows={} hints={} hash={:016x}",
                    view.generation,
                    view.members.len(),
                    weak.num_classes(),
                    weak.num_arrows(),
                    view.hints().count(),
                    span("core.content_hash", || view.hash())
                );
                let mut payload = span("serve.supergraph_header", || {
                    let mut header = String::new();
                    for member in &view.members {
                        header.push_str(&format!(
                            "registry {} generation={} members={}\n",
                            member.registry, member.generation, member.members
                        ));
                    }
                    for hint in view.hints() {
                        header.push_str(&format!("hint[{}] {}\n", hint.code, hint.message));
                    }
                    header
                });
                payload.push_str(&span("serve.view_copy", || {
                    let doc = NamedSchema {
                        name: "supergraph".into(),
                        schema: AnnotatedSchema::all_required(weak.clone()),
                        keys: KeyAssignment::new(),
                    };
                    span("text.print_schema", || print_schema(&doc))
                }));
                payload.push_str(&format!(
                    "// implicit classes: {}\n",
                    view.report.implicit.num_implicit()
                ));
                data_reply(&detail, &payload)
            }
            other => err_line(&format!("the replay does not handle {other}")),
        }
    }
}

fn err_line(detail: &str) -> String {
    format!("{}\n", status_line(Status::Err, detail))
}

fn data_reply(detail: &str, payload: &str) -> String {
    let block = span("protocol.encode_block", || encode_block(payload));
    format!("{}\n{block}", status_line(Status::Data, detail))
}

fn merged_detail(view: &MergedView) -> String {
    let weak = view.proper.as_weak();
    format!(
        "generation={} hash={:016x} classes={} arrows={}",
        view.generation,
        span("core.content_hash", || view.hash()),
        weak.num_classes(),
        weak.num_arrows()
    )
}

/// The `Class.label.label…` paths the workloads send.
fn parse_path(text: &str) -> Option<PathQuery> {
    let mut parts = text.split('.');
    let start = parts.next().filter(|s| !s.is_empty())?;
    let mut query = PathQuery::extent(Class::from_origin_syntax(start));
    for label in parts {
        if label.is_empty() {
            return None;
        }
        query = query.follow(label);
    }
    Some(query)
}

/// `PUT`'s work after the block arrives: parse, pre-join, publish.
fn put_member(registry: &Registry, name: &str, payload: &str) -> String {
    let docs = match span("text.parse_document", || parse_document(payload)) {
        Ok(docs) => docs,
        Err(err) => return err_line(&format!("parse failed: {err}")),
    };
    if docs.is_empty() {
        return err_line("payload contains no schemas");
    }
    let joined = span("core.payload_join", || {
        Merger::new()
            .schemas(docs.iter().map(|d| d.schema.schema()))
            .join()
            .map(|joined| joined.into_weak())
    });
    let joined = match joined {
        Ok(joined) => joined,
        Err(err) => return err_line(&format!("payload does not merge: {err}")),
    };
    match span("registry.put", || registry.put(name, joined)) {
        Ok(outcome) => format!(
            "{}\n",
            status_line(
                Status::Ok,
                &format!(
                    "hash={:016x} sequence={} generation={} strategy={}",
                    outcome.hash,
                    outcome.sequence,
                    outcome.generation,
                    outcome.strategy.as_str()
                ),
            )
        ),
        Err(err) => err_line(&err.to_string()),
    }
}

/// One pass over the request stream.
pub struct Pass {
    pub replayer: Replayer,
    /// Spans of the stream's requests (request id = index in the
    /// stream); empty when the pass was not traced.
    pub spans: Vec<trace::Span>,
    /// Wall time of the stream, set-up excluded.
    pub wall: Duration,
    /// Incremental and full commits during the stream.
    pub commits: (u64, u64),
    /// Incremental and full composes during the stream.
    pub composes: (u64, u64),
    /// Payload bytes the stream's PUTs carried.
    pub put_payload_bytes: u64,
    /// Bytes appended and snapshotted during the stream.
    pub stored_bytes: u64,
    /// Failed replies and wrong acknowledgements.
    pub failures: Vec<String>,
}

/// Brings a fresh replayer to the workload's initial population, then
/// replays `stream`, traced or not.
pub fn run_pass(
    inputs: &ServeInputs,
    stream: &[Req],
    data_dir: Option<&Path>,
    threads: Option<usize>,
    traced: bool,
) -> Result<Pass, String> {
    let replayer = Replayer::open(data_dir, threads)?;
    let mut failures = Vec::new();
    for req in &inputs.setup {
        let reply = replayer.handle(&inputs.wire(req));
        check_reply(inputs, req, &reply, &mut failures);
    }
    let commits_before = replayer.commit_counts();
    let composes_before = compose_counts(&replayer.supergraph);
    let stored_before = stored_bytes(&replayer.store);

    let mut put_payload_bytes = 0;
    let mut wires = Vec::with_capacity(stream.len());
    for req in stream {
        if let Req::Put { payload, .. } = req {
            put_payload_bytes += inputs.payloads[*payload].block.len() as u64;
        }
        wires.push(inputs.wire(req));
    }
    if traced {
        trace::start();
    }
    let started = Instant::now();
    let mut replies = Vec::with_capacity(stream.len());
    for (id, wire) in wires.iter().enumerate() {
        trace::set_request(id as u64);
        replies.push(replayer.handle(wire));
    }
    let wall = started.elapsed();
    let spans = if traced { trace::stop() } else { Vec::new() };

    for (req, reply) in stream.iter().zip(&replies) {
        check_reply(inputs, req, reply, &mut failures);
    }
    let commits_after = replayer.commit_counts();
    let composes_after = compose_counts(&replayer.supergraph);
    Ok(Pass {
        commits: (
            commits_after.0 - commits_before.0,
            commits_after.1 - commits_before.1,
        ),
        composes: (
            composes_after.0 - composes_before.0,
            composes_after.1 - composes_before.1,
        ),
        stored_bytes: stored_bytes(&replayer.store) - stored_before,
        replayer,
        spans,
        wall,
        put_payload_bytes,
        failures,
    })
}

fn stored_bytes(store: &StoreCounters) -> u64 {
    store.appended_bytes.load(Ordering::Relaxed) + store.snapshot_bytes.load(Ordering::Relaxed)
}

fn compose_counts(supergraph: &Supergraph) -> (u64, u64) {
    let stats = supergraph.stats();
    (stats.incremental_composes, stats.full_composes)
}

fn check_reply(inputs: &ServeInputs, req: &Req, reply: &str, failures: &mut Vec<String>) {
    let status = reply.lines().next().unwrap_or_default();
    if !status.starts_with("OK") && !status.starts_with("DATA") {
        failures.push(format!("replayed {req:?} failed: {status}"));
        return;
    }
    if let Req::Put { payload, .. } = req {
        let expected = format!("{:016x}", inputs.payloads[*payload].hash);
        if detail_field(status, "hash") != Some(expected.as_str()) {
            failures.push(format!(
                "replayed {req:?} acked `{status}`, expected hash={expected}"
            ));
        }
    }
}

/// How often the probe reader is due to call `Registry::merged()`.
const READ_INTERVAL: Duration = Duration::from_micros(20);
/// Reads the probe keeps at most.
const MAX_READS: usize = 1 << 20;

/// `Registry::merged()` latency while the stream's PUTs commit: a writer
/// thread replays the PUTs while a reader thread calls `merged()` on the
/// registry being written, on a fixed schedule (an open loop). Each read
/// is timed from when it was due, so a read held up by a commit also
/// charges the wait to the reads queued behind it. Returns the p90, in
/// µs, over the reads due while a commit was in progress.
pub fn merged_during_commit_p90_us(
    inputs: &ServeInputs,
    stream: &[Req],
    data_dir: Option<&Path>,
) -> Result<Option<f64>, String> {
    let replayer = Replayer::open(data_dir, None)?;
    for req in &inputs.setup {
        replayer.handle(&inputs.wire(req));
    }
    let registries = replayer.registries();
    let mut puts = Vec::new();
    for req in stream {
        let Req::Put { name, .. } = req else {
            continue;
        };
        let (routed, _) = replayer.route(name)?;
        let target = registries
            .iter()
            .position(|r| Arc::ptr_eq(r, &routed))
            .expect("every routed registry is attached");
        puts.push((target, inputs.wire(req)));
    }
    if puts.is_empty() {
        return Ok(None);
    }
    let target = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let epoch = Instant::now();
    let (commits, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads: Vec<(Duration, Duration)> = Vec::new();
            let mut due = Duration::ZERO;
            while !done.load(Ordering::SeqCst) && reads.len() < MAX_READS {
                due += READ_INTERVAL;
                while epoch.elapsed() < due {
                    std::hint::spin_loop();
                }
                let view = registries[target.load(Ordering::SeqCst)].merged();
                reads.push((due, epoch.elapsed() - due));
                drop(view);
            }
            reads
        });
        let mut commits = Vec::with_capacity(puts.len());
        for (index, wire) in &puts {
            target.store(*index, Ordering::SeqCst);
            let begin = epoch.elapsed();
            replayer.handle(wire);
            commits.push((begin, epoch.elapsed()));
        }
        done.store(true, Ordering::SeqCst);
        let reads = reader.join().expect("the reader thread does not panic");
        (commits, reads)
    });
    let mut during = Vec::new();
    let mut commit = commits.iter().peekable();
    for (due, latency) in reads {
        while commit.next_if(|(_, end)| *end < due).is_some() {}
        if commit.peek().is_some_and(|(begin, _)| *begin <= due) {
            during.push(latency.as_secs_f64() * 1e6);
        }
    }
    Ok(percentile(&during, 90.0))
}
