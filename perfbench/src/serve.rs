//! The serve workloads: a real `smerge serve` driven over TCP by two
//! closed-loop connections (each sends its next request only after the
//! reply to the previous one has arrived), then checked for correct
//! output and, when durable, for what survives a `kill -9`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use schema_merge_core::{Merger, WeakSchema};
use schema_merge_text::protocol::Status;

use crate::client::{connect, peak_rss_kib, Daemon, Reply};
use crate::inputs::{Req, ServeInputs, Verb, Workload};
use crate::layers;
use crate::report::{median, ms, percentile, Metric, Outcome};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Restarts after a `kill -9` per durable run; `boot_s` is their median.
const BOOTS: usize = 3;
/// Connections driving the daemon.
const CONNECTIONS: usize = 2;

/// One request as the client saw it.
pub struct Sample {
    pub req: Req,
    pub start: Instant,
    pub latency: Duration,
    pub ok: bool,
    pub bytes: usize,
}

/// Member name → (payload index, sequence) of its last acknowledged
/// version.
type Acked = BTreeMap<String, (usize, u32)>;

/// Sends `req` and checks the reply: a non-error status and, for `PUT`,
/// the acknowledged content hash. Records the acknowledgement.
fn exchange(
    conn: &mut crate::client::Conn,
    inputs: &ServeInputs,
    req: &Req,
    acked: &mut Acked,
) -> Result<(Reply, Duration), String> {
    let wire = inputs.wire(req);
    let started = Instant::now();
    let reply = conn
        .send(&wire)
        .map_err(|err| format!("{req:?}: connection failed: {err}"))?;
    let latency = started.elapsed();
    if reply.status == Status::Err {
        return Err(format!("{req:?}: ERR {}", reply.detail));
    }
    if let Req::Put { name, payload } = req {
        let expected = format!("{:016x}", inputs.payloads[*payload].hash);
        if reply.field("hash") != Some(expected.as_str()) {
            return Err(format!(
                "PUT {name} acked `{}`, expected hash={expected}",
                reply.detail
            ));
        }
        let sequence = reply
            .field("sequence")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("PUT {name} ack has no sequence: {}", reply.detail))?;
        acked.insert(name.clone(), (*payload, sequence));
    }
    Ok((reply, latency))
}

/// Starts a daemon and brings it to the workload's initial population,
/// answering PING. Returns the daemon, the acknowledged versions and the
/// time it took.
fn set_up(
    args: &Args,
    inputs: &ServeInputs,
    data_dir: Option<&Path>,
) -> Result<(Daemon, Acked, Duration), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(&args.smerge, data_dir)?;
    let mut conn = connect(daemon.addr)?;
    let mut acked = Acked::new();
    for req in &inputs.setup {
        exchange(&mut conn, inputs, req, &mut acked)?;
    }
    let (reply, _) = exchange(&mut conn, inputs, &Req::Ping, &mut acked)?;
    if reply.detail != "pong" {
        return Err(format!("PING answered `{}`", reply.detail));
    }
    Ok((daemon, acked, started.elapsed()))
}

/// Requests after which the daemon's peak RSS is read for
/// `peak_rss_200req_mb`, so the gated figure covers a fixed amount of
/// work however fast the daemon runs (each published version stays in the
/// member's history). The peak over the whole window prints as a further
/// line.
const RSS_AFTER_REQUESTS: usize = 200;

/// Requests completed across connections, and the daemon's peak RSS
/// (KiB) once [`RSS_AFTER_REQUESTS`] had completed.
struct Progress {
    pid: u32,
    completed: AtomicUsize,
    peak_rss_kib: Mutex<Option<Result<u64, String>>>,
}

impl Progress {
    fn complete_one(&self) {
        if self.completed.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AFTER_REQUESTS {
            *self.peak_rss_kib.lock().expect("no reader panics") = Some(peak_rss_kib(self.pid));
        }
    }
}

/// One connection's closed loop until `deadline`.
fn drive(
    inputs: &ServeInputs,
    conn_id: usize,
    addr: std::net::SocketAddr,
    deadline: Instant,
    progress: &Progress,
) -> (Vec<Sample>, Acked, Vec<String>) {
    let mut samples = Vec::new();
    let mut acked = Acked::new();
    let mut failures = Vec::new();
    let mut conn = match connect(addr) {
        Ok(conn) => conn,
        Err(err) => return (samples, acked, vec![err]),
    };
    let mut stream = inputs.stream(conn_id);
    while Instant::now() < deadline {
        let req = stream.next_req();
        let start = Instant::now();
        let result = exchange(&mut conn, inputs, &req, &mut acked);
        progress.complete_one();
        match result {
            Ok((reply, latency)) => samples.push(Sample {
                req,
                start,
                latency,
                ok: true,
                bytes: reply.bytes,
            }),
            Err(err) => {
                let broken = err.contains("connection failed");
                failures.push(err);
                samples.push(Sample {
                    req,
                    start,
                    latency: start.elapsed(),
                    ok: false,
                    bytes: 0,
                });
                if broken {
                    break;
                }
            }
        }
    }
    (samples, acked, failures)
}

/// Client-observed latencies of `verb`'s successful requests, in ms.
pub fn latencies_ms(samples: &[Sample], verb: Verb) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && s.req.verb() == verb)
        .map(|s| ms(s.latency))
        .collect()
}

/// The content hash of the one-shot merge of every member's last
/// acknowledged version.
fn expected_hash(inputs: &ServeInputs, acked: &Acked) -> Result<u64, String> {
    let schemas: Vec<&WeakSchema> = acked
        .values()
        .map(|(payload, _)| &inputs.payloads[*payload].joined)
        .collect();
    Merger::new()
        .schemas(schemas)
        .execute()
        .map(|report| report.proper.content_hash())
        .map_err(|err| format!("the one-shot merge failed: {err}"))
}

/// The merged view's hash as the daemon reports it: MERGED, or COMPOSE
/// then SUPERGRAPH under federation.
fn served_hash(
    conn: &mut crate::client::Conn,
    inputs: &ServeInputs,
    acked: &mut Acked,
) -> Result<String, String> {
    let read = if inputs.workload == Workload::Federation {
        exchange(conn, inputs, &Req::Compose, acked)?;
        Req::Supergraph
    } else {
        Req::Merged
    };
    let (reply, _) = exchange(conn, inputs, &read, acked)?;
    reply
        .field("hash")
        .map(str::to_string)
        .ok_or_else(|| format!("{read:?} reply has no hash: {}", reply.detail))
}

/// Parses `merges: X incremental, Y full` from a STATS block.
fn stats_commits(block: &str) -> Option<(u64, u64)> {
    let line = block.lines().find(|l| l.starts_with("merges:"))?;
    let mut words = line.split_whitespace();
    words.next();
    let incremental = words.next()?.parse().ok()?;
    words.next();
    let full = words.next()?.parse().ok()?;
    Some((incremental, full))
}

/// Checks that LIST shows every acknowledged version.
fn check_list(block: &str, inputs: &ServeInputs, acked: &Acked) -> Result<(), String> {
    let listed: BTreeMap<&str, (&str, &str)> = block
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?;
            let hash = words.next()?.strip_prefix("hash=")?;
            let version = words.next()?.strip_prefix('v')?;
            Some((name, (hash, version)))
        })
        .collect();
    for (name, (payload, sequence)) in acked {
        let expected_hash = format!("{:016x}", inputs.payloads[*payload].hash);
        let expected_sequence = sequence.to_string();
        match listed.get(name.as_str()) {
            Some((hash, version)) if *hash == expected_hash && *version == expected_sequence => {}
            other => {
                return Err(format!(
                    "after restart LIST shows {name} as {other:?}, acked hash={expected_hash} v{sequence}"
                ))
            }
        }
    }
    Ok(())
}

pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let inputs = ServeInputs::generate(workload, args.seed);
    let work = crate::work_dir(workload)?;
    let mut outcome = Outcome::default();

    // Set up several times; keep the last daemon for the traffic.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let data_dir = workload.durable().then(|| work.join(format!("data-{i}")));
        let (daemon, acked, took) = set_up(args, &inputs, data_dir.as_deref())?;
        setup_times.push(took.as_secs_f64());
        kept = Some((daemon, acked, data_dir));
    }
    let (daemon, mut acked, data_dir) = kept.expect("at least one set-up");
    let commits_at_setup = {
        let mut conn = connect(daemon.addr)?;
        let (stats, _) = exchange(&mut conn, &inputs, &Req::Stats, &mut Acked::new())?;
        stats.block.as_deref().and_then(stats_commits)
    };

    // The closed loop.
    let progress = Progress {
        pid: daemon.pid(),
        completed: AtomicUsize::new(0),
        peak_rss_kib: Mutex::new(None),
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let inputs = &inputs;
                let addr = daemon.addr;
                let progress = &progress;
                scope.spawn(move || drive(inputs, c, addr, deadline, progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    let mut samples = Vec::new();
    for (conn_samples, conn_acked, failures) in logs {
        samples.extend(conn_samples);
        acked.extend(conn_acked);
        outcome.failed_checks.extend(failures);
    }
    samples.sort_by_key(|s| s.start);
    let window = samples
        .iter()
        .map(|s| s.start + s.latency)
        .max()
        .map_or(Duration::ZERO, |end| end - started);
    outcome.attempted = samples.len() as u64;
    outcome.failed_requests = samples.iter().filter(|s| !s.ok).count() as u64;
    let completed = samples.iter().filter(|s| s.ok).count();

    // Output checks against the in-process one-shot merge.
    let mut conn = connect(daemon.addr)?;
    let expected = format!("{:016x}", expected_hash(&inputs, &acked)?);
    let served = served_hash(&mut conn, &inputs, &mut acked)?;
    outcome.check(served == expected, || {
        format!("final merged hash {served}, one-shot merge of the acked versions gives {expected}")
    });
    let (stats, _) = exchange(&mut conn, &inputs, &Req::Stats, &mut acked)?;
    let daemon_commits = stats.block.as_deref().and_then(stats_commits);
    let window_rss_mb = peak_rss_kib(daemon.pid())? as f64 / 1024.0;
    // A daemon too slow to complete that many requests in the window is
    // measured at the window's end.
    let prefix_rss_kib = match progress
        .peak_rss_kib
        .into_inner()
        .expect("no reader panics")
    {
        Some(read) => read?,
        None => peak_rss_kib(daemon.pid())?,
    };
    let prefix_rss_mb = prefix_rss_kib as f64 / 1024.0;
    drop(conn);

    // Durability: kill -9, restart on the same directory, check, time.
    let mut boots = Vec::new();
    if let Some(dir) = &data_dir {
        daemon.kill()?;
        for boot in 0..BOOTS {
            let t = Instant::now();
            let restarted = Daemon::spawn(&args.smerge, Some(dir))?;
            boots.push(t.elapsed().as_secs_f64());
            if boot == 0 {
                let mut conn = connect(restarted.addr)?;
                let (list, _) = exchange(&mut conn, &inputs, &Req::List, &mut Acked::new())?;
                if let Err(err) =
                    check_list(list.block.as_deref().unwrap_or_default(), &inputs, &acked)
                {
                    outcome.failed_checks.push(err);
                }
                let served = served_hash(&mut conn, &inputs, &mut Acked::new())?;
                outcome.check(served == expected, || {
                    format!("after restart the merged hash is {served}, expected {expected}")
                });
            }
            restarted.kill()?;
        }
    } else {
        daemon.kill()?;
    }

    let headline = latencies_ms(&samples, workload.headline());
    if !args.trace {
        outcome.metrics = vec![
            Metric::new("setup_s", median(&setup_times).unwrap_or(f64::NAN), "s")
                .with_samples(setup_times.len()),
            Metric::new(
                "throughput_rps",
                completed as f64 / window.as_secs_f64().max(1e-9),
                "1/s",
            )
            .with_samples(completed),
            Metric::new("p50_ms", median(&headline).unwrap_or(f64::NAN), "ms")
                .with_samples(headline.len()),
            Metric::new("peak_rss_200req_mb", prefix_rss_mb, "MiB")
                .with_samples(RSS_AFTER_REQUESTS.min(samples.len())),
        ];
    }
    outcome
        .notes
        .push(Metric::new("peak_rss_window_mb", window_rss_mb, "MiB").with_samples(samples.len()));
    for verb in [
        Verb::Put,
        Verb::Merged,
        Verb::Get,
        Verb::Query,
        Verb::Compose,
        Verb::Supergraph,
    ] {
        let lat = latencies_ms(&samples, verb);
        if lat.is_empty() {
            continue;
        }
        let n = lat.len();
        outcome.notes.push(
            Metric::new(
                format!("{}_p50_ms", verb.name()),
                median(&lat).unwrap_or(f64::NAN),
                "ms",
            )
            .with_samples(n),
        );
        match percentile(&lat, 90.0) {
            Some(p90) => outcome
                .notes
                .push(Metric::new(format!("{}_p90_ms", verb.name()), p90, "ms").with_samples(n)),
            None => outcome.notes.push(Metric::new(
                format!("{}_p90_ms_unsupported", verb.name()),
                n as f64,
                "samples",
            )),
        }
    }
    if !boots.is_empty() {
        outcome.notes.push(
            Metric::new("boot_s", median(&boots).unwrap_or(f64::NAN), "s")
                .with_samples(boots.len()),
        );
    }
    outcome.notes.push(Metric::new(
        "error_rate",
        outcome.failed_requests as f64 / (outcome.attempted.max(1)) as f64,
        "ratio",
    ));
    // STATS covers the daemon's own registry, which federation leaves empty.
    if let (false, Some((inc0, full0)), Some((inc1, full1))) = (
        workload == Workload::Federation,
        commits_at_setup,
        daemon_commits,
    ) {
        let (inc, full) = (inc1 - inc0, full1 - full0);
        outcome.notes.push(Metric::new(
            "daemon_cache_hit_ratio",
            inc as f64 / (inc + full).max(1) as f64,
            "ratio",
        ));
    }

    if args.trace {
        layers::measure(&inputs, &samples, &work, &mut outcome)?;
    }
    Ok(outcome)
}
