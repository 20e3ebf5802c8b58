//! tunebench: the closed-loop benchmark of the rockserve tuning service.
//!
//! ```sh
//! cargo run --release --manifest-path tunebench/Cargo.toml -- \
//!     --workload tune_steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run boots the rockserve stack in process, drives it over two client
//! connections with recurring Spark submissions (`Suggest`, a simulated run
//! of the served config, `Report` with the run's event log), drains it, and
//! repeats that episode against a freshly booted server until `--seconds`
//! is covered. It then checks the served points and prints every metric
//! with its unit, taken over all episodes. The last line of standard output
//! is the JSON result. `--trace 1` runs one episode, adds the in-process,
//! span-timed replay and prints the per-layer metrics instead of the
//! end-to-end ones. See README.md for the metrics and workloads.

mod check;
mod gen;
mod load;
mod prep;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use gen::{Inputs, Workload, CONNECTIONS};
use load::{BootDirs, ConnResult, Drained};
use stats::{median, percentile, sorted, Metric, Outcome};

/// Set-ups per run, `setup_s` being their median: at least the minimum,
/// more while they have taken less than the budget in total, so a cheap
/// set-up is sampled often enough for a steady median.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 31;
const SETUP_BUDGET_S: f64 = 2.0;

/// The stream one episode sends is sized for this many seconds; a run of
/// `--seconds` drives `seconds / EPISODE_SECONDS` episodes (rounded, at
/// least one), each against a freshly booted server. Repeating a fixed-size
/// episode, rather than sending a longer stream, keeps every workload's
/// shape (how far tuners get, how large the sidecar directory grows)
/// independent of the run length, gives each run several set-ups, and lets
/// the timing metrics skip the episodes the host slowed (see `end_to_end`).
const EPISODE_SECONDS: u64 = 5;

/// A run still going after this long has stalled: it ends as failed.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// Where runs keep scratch state and span logs, relative to the checkout.
const OUT_DIR: &str = ".tunebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: not a number: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tunebench: {e}");
            eprintln!(
                "usage: tunebench --workload tune_steady|tenant_churn|cold_transfer \
                 --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let episode_s = args.seconds.clamp(1, EPISODE_SECONDS);
    // The traced run replays one episode in process; more would only add time.
    let episodes = if args.trace {
        1
    } else {
        ((args.seconds + episode_s / 2) / episode_s).max(1) as usize
    };
    let inputs = Arc::new(Inputs::generate(args.workload, args.seed, episode_s));
    let attempted = (2 * inputs.measured_len() * episodes) as u64;
    let done = Arc::new(AtomicU64::new(0));
    let watchdog = {
        let (done, work) = (Arc::clone(&done), work.clone());
        Watchdog::arm(RUN_BUDGET, move || {
            let failed = attempted - done.load(Ordering::Relaxed).min(attempted);
            println!(
                "watchdog: run still going after {}s; {failed} of {attempted} requests \
                 outstanding, counted as failed",
                RUN_BUDGET.as_secs(),
            );
            let _ = std::fs::remove_dir_all(&work);
            let line = Outcome {
                correct: false,
                attempted,
                failed,
                metrics: Vec::new(),
            };
            println!("{}", line.to_json());
            std::process::exit(1);
        })
    };
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("work dir: {e}"))
        .and_then(|()| run(&args, &inputs, episodes, &work, &done));
    watchdog.disarm();
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{}", line.to_json()),
        Err(e) => {
            eprintln!("tunebench: run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Ends the process as a failed run if it is not disarmed in time.
struct Watchdog {
    state: Arc<(Mutex<bool>, Condvar)>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    fn arm(budget: Duration, fire: impl FnOnce() + Send + 'static) -> Watchdog {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            let (lock, wake) = &*shared;
            let disarmed = lock.lock().unwrap_or_else(PoisonError::into_inner);
            let (disarmed, _) = wake
                .wait_timeout_while(disarmed, budget, |disarmed| !*disarmed)
                .unwrap_or_else(PoisonError::into_inner);
            if !*disarmed {
                // Exits while holding the lock, so `disarm` cannot race it.
                fire();
            }
        });
        Watchdog { state, thread }
    }

    fn disarm(self) {
        let (lock, wake) = &*self.state;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        let _ = self.thread.join();
    }
}

/// One pass of the measured stream against a freshly booted server.
struct Episode {
    conns: Vec<ConnResult>,
    wall_s: f64,
    drained: Drained,
}

/// Everything one run measured, before it is turned into metrics.
struct Measured {
    setup_s: Vec<f64>,
    /// At least one; every episode sends the same stream.
    episodes: Vec<Episode>,
    /// The first episode's boot dirs, scanned for durable-state sizes.
    boot: BootDirs,
    /// Peak resident set once the first episode drained. Later episodes
    /// boot servers with new threads, whose allocator arenas would make
    /// the peak depend on how many episodes ran and on thread contention.
    peak_rss_mb: f64,
}

impl Episode {
    fn completed(&self) -> usize {
        self.conns.iter().map(|c| c.recs.len()).sum()
    }

    /// `f` of every completed submission, ascending.
    fn sorted(&self, f: impl Fn(&load::Rec) -> f64) -> Vec<f64> {
        sorted(
            self.conns
                .iter()
                .flat_map(|c| c.recs.iter().map(&f))
                .collect(),
        )
    }

    /// The points this episode served, by signature.
    fn served(&self) -> check::Served {
        check::by_signature(
            self.conns
                .iter()
                .flat_map(|c| c.recs.iter().map(|r| (r.sub, &r.point))),
        )
    }
}

impl Measured {
    fn first(&self) -> &Episode {
        &self.episodes[0]
    }

    fn conns(&self) -> impl Iterator<Item = &ConnResult> {
        self.episodes.iter().flat_map(|e| &e.conns)
    }
}

fn run(
    args: &Args,
    inputs: &Arc<Inputs>,
    episodes: usize,
    work: &Path,
    done: &Arc<AtomicU64>,
) -> Result<Outcome, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let shape = args.workload.serve_shape();

    // What every boot starts from, written once and copied per boot.
    let pristine = BootDirs {
        state: shape.durable.then(|| work.join("pristine/state")),
        corpus: shape.retrieval.then(|| work.join("pristine/corpus")),
    };
    let prefill_points = match &pristine.state {
        Some(dir) => prep::prefill(inputs, dir).map_err(io("prefill"))?,
        None => Vec::new(),
    };
    if let Some(dir) = &pristine.corpus {
        prep::write_corpus(inputs, dir).map_err(io("corpus"))?;
    }

    let mut setup_s = Vec::new();
    let boot_dirs = |n: usize| pristine.copy_to(&work.join(format!("boot-{n}")));
    let (mut server, boot) = loop {
        let dirs = boot_dirs(setup_s.len()).map_err(io("boot dirs"))?;
        let (server, secs) = load::boot(inputs, &dirs).map_err(io("boot"))?;
        setup_s.push(secs);
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= SETUPS_MAX || (setup_s.len() >= SETUPS_MIN && spent >= SETUP_BUDGET_S) {
            break (server, dirs);
        }
        server.shutdown();
    };
    let mut runs = Vec::with_capacity(episodes);
    let mut peak_rss = 0.0;
    loop {
        let (conns, wall_s) = load::run_load(server.local_addr(), inputs, args.trace, done);
        let drained = load::drain(server).map_err(io("drain"))?;
        if runs.is_empty() {
            peak_rss = peak_rss_mb();
        }
        runs.push(Episode {
            conns,
            wall_s,
            drained,
        });
        if runs.len() == episodes {
            break;
        }
        let dirs = boot_dirs(setup_s.len()).map_err(io("boot dirs"))?;
        let (next, secs) = load::boot(inputs, &dirs).map_err(io("boot"))?;
        setup_s.push(secs);
        server = next;
    }
    let m = Measured {
        setup_s,
        episodes: runs,
        boot,
        peak_rss_mb: peak_rss,
    };

    let served = served(inputs, &prefill_points, &m.first().conns);
    let mut problems = verify(inputs, &served, &m, &pristine, work);
    let metrics = if args.trace {
        let dirs = pristine
            .copy_to(&work.join("trace"))
            .map_err(io("trace dirs"))?;
        let mut tracer = trace::Tracer::new();
        let replay = trace::replay(
            &mut tracer,
            inputs,
            &prefill_points,
            &dirs,
            &m.first().conns,
        );
        let spans = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = tracer.write_tsv(&spans) {
            problems.push(format!("writing {}: {e}", spans.display()));
        } else {
            println!(
                "spans: {} written to {}",
                tracer.spans.len(),
                spans.display()
            );
        }
        match replay {
            Ok(replay) => per_layer(&m, &tracer, &replay),
            Err(e) => {
                problems.push(format!("traced replay: {e}"));
                per_layer(&m, &tracer, &trace::Replay::default())
            }
        }
    } else {
        end_to_end(inputs, &m)
    };

    let failures = failures(&m);
    let succeeded = done.load(Ordering::Relaxed);
    let attempted = (2 * inputs.measured_len() * episodes) as u64;
    let sent: u64 = m.conns().map(|c| c.sent).sum();
    stamp(args, inputs);
    println!(
        "requests: attempted={attempted} sent={sent} succeeded={succeeded} failed={} \
         (overloaded={} error={} wire={} unsent={})",
        attempted - succeeded,
        failures.overloaded,
        failures.error,
        failures.wire,
        attempted - sent,
    );
    println!(
        "fail_frac: {}",
        (attempted - succeeded) as f64 / attempted.max(1) as f64
    );
    println!(
        "served: fingerprint={:016x} signatures={} submissions={} prefill={} episodes={}",
        check::fingerprint(&served),
        served.len(),
        inputs.measured_len(),
        inputs.prefill.len(),
        m.episodes.len()
    );
    if !args.trace {
        let suggest = sorted(all(&m, |r| r.suggest_us));
        let report = sorted(all(&m, |r| r.report_us));
        let per_episode = |f: &dyn Fn(&Episode) -> f64| {
            let v: Vec<String> = m.episodes.iter().map(|e| format!("{:.0}", f(e))).collect();
            v.join(",")
        };
        println!(
            "diagnostic: suggest_p99_us={} report_p99_us={} samples={} setups={} \
             per episode: wall_ms={} suggest_p50_us={}",
            percentile(&suggest, 0.99).unwrap_or(0.0),
            percentile(&report, 0.99).unwrap_or(0.0),
            suggest.len(),
            m.setup_s.len(),
            per_episode(&|e| e.wall_s * 1e3),
            per_episode(&|e| percentile(&e.sorted(|r| r.suggest_us), 0.5).unwrap_or(0.0)),
        );
    }
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    for metric in &metrics {
        println!("{:<28} {:>16} {}", metric.name, metric.value, metric.unit);
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - succeeded,
        metrics,
    })
}

fn failures(m: &Measured) -> load::Failures {
    let mut f = load::Failures::default();
    for c in m.conns() {
        f.add(c.failures);
    }
    f
}

/// Every served point by signature: the prefill's, then the wire run's.
fn served(inputs: &Inputs, prefill_points: &[Vec<f64>], conns: &[ConnResult]) -> check::Served {
    let prefill = inputs.prefill.iter().copied().zip(prefill_points);
    let wire = conns
        .iter()
        .flat_map(|c| c.recs.iter().map(|r| (r.sub, &r.point)));
    check::by_signature(prefill.chain(wire))
}

/// The run's correctness checks; each problem found is one line. Every
/// episode must complete cleanly and serve the first episode's points bit
/// for bit; the first episode's points are checked against fresh replays.
fn verify(
    inputs: &Inputs,
    served: &check::Served,
    m: &Measured,
    pristine: &BootDirs,
    work: &Path,
) -> Vec<String> {
    let mut problems = Vec::new();
    let f = failures(m);
    if f.total() > 0 {
        problems.push(format!("{} requests failed: {f:?}", f.total()));
    }
    let first = check::fingerprint(&m.first().served());
    for (e, episode) in m.episodes.iter().enumerate() {
        let completed = episode.completed();
        if completed != inputs.measured_len() {
            problems.push(format!(
                "episode {e}: {completed} of {} submissions completed",
                inputs.measured_len()
            ));
        }
        if episode.drained.serving.protocol_errors > 0 {
            problems.push(format!(
                "episode {e}: server counted {} protocol errors",
                episode.drained.serving.protocol_errors
            ));
        }
        if !episode.drained.clean {
            problems.push(format!("episode {e}: the server did not drain cleanly"));
        }
        if e > 0 && check::fingerprint(&episode.served()) != first {
            problems.push(format!("episode {e} served other points than episode 0"));
        }
    }
    let fallbacks = m
        .conns()
        .flat_map(|c| &c.recs)
        .filter(|r| r.fallback)
        .count();
    if fallbacks > 0 {
        problems.push(format!(
            "{fallbacks} suggestions fell back to the default config"
        ));
    }
    let index = match &pristine.corpus {
        Some(_) => match pristine
            .copy_to(&work.join("check"))
            .and_then(|dirs| pipeline::Corpus::open(&dirs.corpus.unwrap_or_default()))
        {
            Ok((corpus, _)) => Some(Arc::new(pipeline::KnnIndex::build(&corpus))),
            Err(e) => {
                problems.push(format!("reopening the corpus: {e}"));
                return problems;
            }
        },
        None => None,
    };
    for sig in check::sample(inputs) {
        let points = served.get(&sig).map_or(&[][..], Vec::as_slice);
        if let Err(e) = check::replay(inputs, sig, points, index.as_ref()) {
            problems.push(e);
        }
    }
    problems
}

/// `f` of every completed submission of every episode.
fn all(m: &Measured, f: impl Fn(&load::Rec) -> f64) -> Vec<f64> {
    m.conns().flat_map(|c| c.recs.iter().map(&f)).collect()
}

/// The timing metrics come from the episode where each reads best: the
/// highest throughput, the lowest percentile. Every episode sends the same
/// stream to an identically booted server, so whatever the program does
/// (snapshot stalls included) happens in each of them; what differs is how
/// much of the episode the shared host ran slow, which only ever adds time.
fn end_to_end(inputs: &Inputs, m: &Measured) -> Vec<Metric> {
    let recs: Vec<&load::Rec> = m.conns().flat_map(|c| &c.recs).collect();
    let completed = 2 * recs.len() as u64;
    let attempted = (2 * inputs.measured_len() * m.episodes.len()) as u64;
    let ran = || m.episodes.iter().filter(|e| e.completed() > 0);
    let highest = |f: &dyn Fn(&Episode) -> f64| ran().map(f).reduce(f64::max).unwrap_or(0.0);
    let lowest = |f: &dyn Fn(&Episode) -> f64| ran().map(f).reduce(f64::min).unwrap_or(0.0);
    let pct = |f: fn(&load::Rec) -> f64, q: f64| {
        lowest(&move |e: &Episode| percentile(&e.sorted(f), q).unwrap_or(0.0))
    };
    let ratios: Vec<f64> = recs
        .iter()
        .map(|r| r.true_ms / inputs.query(r.sub).default_ms)
        .collect();
    vec![
        Metric::new(
            "throughput_rps",
            highest(&|e| 2.0 * e.completed() as f64 / e.wall_s),
            "req/s",
        ),
        Metric::new("suggest_p50_us", pct(|r| r.suggest_us, 0.5), "us"),
        Metric::new("suggest_p90_us", pct(|r| r.suggest_us, 0.9), "us"),
        Metric::new("report_p50_us", pct(|r| r.report_us, 0.5), "us"),
        Metric::new("report_p90_us", pct(|r| r.report_us, 0.9), "us"),
        Metric::new(
            "cost_ratio",
            ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
            "ratio",
        ),
        Metric::new("success_frac", completed as f64 / attempted as f64, "ratio"),
        Metric::new("setup_s", median(m.setup_s.clone()), "s"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

fn per_layer(m: &Measured, t: &trace::Tracer, r: &trace::Replay) -> Vec<Metric> {
    // A layer the workload bypasses has no spans and reads 0.
    let span = |name| median(t.durations(name));
    let first = m.first();
    let serving = &first.drained.serving;
    let dash = &first.drained.dashboard;
    let files = m.boot.state.as_deref().map(scan_state).unwrap_or_default();
    let shard_suggests: Vec<f64> = serving.shards.iter().map(|s| s.suggests as f64).collect();
    let mean_suggests = shard_suggests.iter().sum::<f64>() / shard_suggests.len().max(1) as f64;
    let max_suggests = shard_suggests.iter().copied().fold(0.0, f64::max);
    let gen_s: f64 = all(m, |r| r.gen_us).iter().sum::<f64>() / 1e6;
    let busy_s: f64 = m.conns().map(|c| c.busy_s).sum();
    let count = |n: u64| n as f64;
    vec![
        Metric::new("proto.decode_report_us", span("proto.decode_report"), "us"),
        Metric::new(
            "proto.decode_suggest_us",
            span("proto.decode_suggest"),
            "us",
        ),
        Metric::new("proto.encode_us", span("proto.encode"), "us"),
        Metric::new(
            "proto.report_frame_bytes",
            median(r.report_frame_bytes.clone()),
            "bytes",
        ),
        Metric::new(
            "serve.edge_suggest_us",
            median(r.edge_suggest_us.clone()),
            "us",
        ),
        Metric::new(
            "serve.edge_report_us",
            median(r.edge_report_us.clone()),
            "us",
        ),
        Metric::new("serve.server_p50_us", count(serving.p50_us), "us"),
        Metric::new("serve.server_p99_us", count(serving.p99_us), "us"),
        Metric::new("serve.backend_evals", count(serving.backend_evals), "count"),
        Metric::new(
            "serve.coalesced_hits",
            count(serving.coalesced_hits),
            "count",
        ),
        Metric::new("serve.overloaded", count(serving.overloaded), "count"),
        Metric::new(
            "serve.queue_depth_max",
            count(m.conns().map(|c| c.queue_depth_max).max().unwrap_or(0)),
            "count",
        ),
        Metric::new(
            "serve.inflight_max",
            count(m.conns().map(|c| c.inflight_max).max().unwrap_or(0)),
            "count",
        ),
        Metric::new("event.parse_us", span("event.parse"), "us"),
        Metric::new("etl.extract_us", span("etl.extract"), "us"),
        Metric::new("backend.suggest_us", span("backend.suggest"), "us"),
        Metric::new("backend.ingest_us", span("backend.ingest"), "us"),
        Metric::new(
            "backend.suggest_self_us",
            median(r.suggest_self_us.clone()),
            "us",
        ),
        Metric::new(
            "backend.ingest_self_us",
            median(r.ingest_self_us.clone()),
            "us",
        ),
        Metric::new("rockhopper.suggest_us", span("rockhopper.suggest"), "us"),
        Metric::new("rockhopper.observe_us", span("rockhopper.observe"), "us"),
        Metric::new(
            "rockhopper.model_share",
            r.model_suggests as f64 / r.mirror_suggests.max(1) as f64,
            "ratio",
        ),
        Metric::new("rockindex.lookup_us", span("rockindex.lookup"), "us"),
        Metric::new("rockindex.eligible_us", span("rockindex.eligible"), "us"),
        Metric::new("rockindex.open_s", r.open_s, "s"),
        Metric::new("rockindex.index_build_s", r.index_build_s, "s"),
        Metric::new("rockindex.cold_hits", count(dash.cold_hits), "count"),
        Metric::new("rockindex.cold_misses", count(dash.cold_misses), "count"),
        Metric::new(
            "rockindex.transfer_seeded",
            count(dash.transfer_seeded),
            "count",
        ),
        Metric::new("rockdur.recover_s", r.recover_s, "s"),
        Metric::new("rockdur.replayed", count(r.replayed), "count"),
        Metric::new("rockdur.quarantined", count(r.quarantined), "count"),
        Metric::new(
            "rockdur.wal_records",
            count(dash.wal_records_written),
            "count",
        ),
        Metric::new("rockdur.snapshots", count(dash.snapshot_writes), "count"),
        Metric::new("rockdur.wal_bytes", count(files.wal_bytes), "bytes"),
        Metric::new(
            "rockdur.snapshot_bytes",
            count(files.snapshot_bytes),
            "bytes",
        ),
        Metric::new("rockdur.sidecars", count(files.sidecars), "count"),
        Metric::new("rockdur.flush_us", median(r.flush_us.clone()), "us"),
        Metric::new("lru.evictions", count(dash.tuner_evictions), "count"),
        Metric::new("lru.restores", count(dash.evicted_restored), "count"),
        Metric::new("lru.resident", count(first.drained.resident), "count"),
        Metric::new(
            "sharding.max_over_mean",
            if mean_suggests > 0.0 {
                max_suggests / mean_suggests
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("bench.sim_us", median(all(m, |r| r.gen_us)), "us"),
        Metric::new(
            "bench.gen_share",
            if busy_s > 0.0 { gen_s / busy_s } else { 0.0 },
            "ratio",
        ),
        Metric::new("bench.trace_overhead", r.trace_overhead, "ratio"),
    ]
}

/// Sizes of what the durable layer left in a state dir.
#[derive(Default)]
struct StateFiles {
    wal_bytes: u64,
    snapshot_bytes: u64,
    sidecars: u64,
}

fn scan_state(dir: &Path) -> StateFiles {
    let mut files = StateFiles::default();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if path.is_dir() {
                stack.push(path);
            } else if d.file_name().is_some_and(|n| n == "side") && name.ends_with(".json") {
                files.sidecars += 1;
            } else if name.starts_with("wal-") {
                files.wal_bytes += len;
            } else if name.starts_with("snap-") {
                files.snapshot_bytes += len;
            }
        }
    }
    files
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and run stamp: what the numbers were measured on and with.
fn stamp(args: &Args, inputs: &Inputs) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let shape = args.workload.serve_shape();
    println!(
        "tunebench: workload={} seed={} seconds={} trace={} connections={CONNECTIONS} \
         client_threads={CONNECTIONS} shards={} rh_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        shape.shards,
        std::env::var("RH_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    println!(
        "host: nproc={nproc} cpu=\"{cpu}\" commit={} root_seed={:016x}",
        commit(),
        inputs.root_seed
    );
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark also runs from exported trees that have no `.git`.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
