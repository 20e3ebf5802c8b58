//! The server under test and the closed-loop load that drives it: set-up
//! timing, the two client connections, the final `Metrics` frame and the
//! drain.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pipeline::{AutotuneBackend, DashboardCounters, Storage};
use rockserve::proto::Response;
use rockserve::{MetricsSnapshot, ServeClient, ServeConfig, Server};

use crate::gen::{Inputs, Submission};

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The directories a server boots from: a state dir to recover, a corpus
/// to open. Each set-up gets its own copy, so every boot reads identical
/// bytes.
#[derive(Clone, Default)]
pub struct BootDirs {
    pub state: Option<PathBuf>,
    pub corpus: Option<PathBuf>,
}

impl BootDirs {
    /// Copy the pristine dirs under `dest`.
    pub fn copy_to(&self, dest: &Path) -> io::Result<BootDirs> {
        let copy = |src: &Option<PathBuf>, name: &str| -> io::Result<Option<PathBuf>> {
            match src {
                Some(src) => {
                    let to = dest.join(name);
                    copy_dir(src, &to)?;
                    Ok(Some(to))
                }
                None => Ok(None),
            }
        };
        Ok(BootDirs {
            state: copy(&self.state, "state")?,
            corpus: copy(&self.corpus, "corpus")?,
        })
    }
}

fn copy_dir(src: &Path, dest: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dest)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dest.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

/// Boot a server for `inputs` from `dirs`; returns it with the seconds from
/// `Server::spawn` until the listener answered a `Health` frame (recovery
/// replay and corpus indexing included).
pub fn boot(inputs: &Inputs, dirs: &BootDirs) -> io::Result<(Server, f64)> {
    let shape = inputs.workload.serve_shape();
    let backend = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.root_seed);
    let cfg = ServeConfig {
        state_dir: dirs.state.clone(),
        shards: shape.shards,
        shard_capacity: shape.shard_capacity,
        retrieval_dir: dirs.corpus.clone(),
        ..ServeConfig::default()
    };
    let started = Instant::now();
    let server = Server::spawn(backend, "127.0.0.1:0", cfg)?;
    let mut probe = ServeClient::connect(server.local_addr())?;
    match probe.health() {
        Ok(Response::Healthy { .. }) => Ok((server, started.elapsed().as_secs_f64())),
        other => Err(io::Error::other(format!("health probe answered {other:?}"))),
    }
}

/// One completed submission as its connection saw it.
#[derive(Debug, Clone)]
pub struct Rec {
    pub sub: Submission,
    pub suggest_us: f64,
    pub report_us: f64,
    pub point: Vec<f64>,
    pub fallback: bool,
    /// Noise-free runtime of the served configuration, ms.
    pub true_ms: f64,
    /// Client time spent building the context, simulating the run and
    /// rendering its event log, µs.
    pub gen_us: f64,
}

/// Why requests failed, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    pub overloaded: u64,
    pub error: u64,
    pub wire: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.overloaded + self.error + self.wire
    }

    fn count(&mut self, reply: &Result<Response, rockserve::WireError>) {
        match reply {
            Ok(Response::Overloaded { .. }) => self.overloaded += 1,
            Err(_) => self.wire += 1,
            Ok(_) => self.error += 1,
        }
    }

    pub fn add(&mut self, other: Failures) {
        self.overloaded += other.overloaded;
        self.error += other.error;
        self.wire += other.wire;
    }
}

/// What one connection brought back.
#[derive(Debug, Default)]
pub struct ConnResult {
    pub recs: Vec<Rec>,
    pub sent: u64,
    pub failures: Failures,
    /// Wall time of the connection's loop, seconds.
    pub busy_s: f64,
    /// Largest queue depth and in-flight gauge read from in-band `Metrics`
    /// frames (traced runs only).
    pub queue_depth_max: u64,
    pub inflight_max: u64,
}

/// In traced runs every connection reads the `Metrics` gauges this often.
const GAUGE_EVERY: usize = 32;

/// Drive connection `conn`'s stream in a closed loop: each submission is a
/// `Suggest`, a simulated run of the served config and a `Report`, with no
/// think time. The first failed request ends the connection; its remaining
/// requests count as failed.
pub fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    conn: usize,
    sample_gauges: bool,
    done: &AtomicU64,
) -> ConnResult {
    let mut out = ConnResult::default();
    let started = Instant::now();
    let Ok(mut client) = ServeClient::connect(addr) else {
        out.failures.wire += 1;
        return out;
    };
    for (i, &sub) in inputs.conns[conn].iter().enumerate() {
        let sig = inputs.sig(sub);
        let gen_started = Instant::now();
        let ctx = inputs.context(sub);
        let mut gen_us = us_since(gen_started);
        let t = Instant::now();
        out.sent += 1;
        let reply = client.suggest(&sig.user, sig.id, &ctx);
        let suggest_us = us_since(t);
        let (point, fallback) = match reply {
            Ok(Response::Suggestion {
                point, fallback, ..
            }) => (point, fallback.is_some()),
            other => {
                out.failures.count(&other);
                break;
            }
        };
        done.fetch_add(1, Ordering::Relaxed);
        let gen_started = Instant::now();
        let job = inputs.run(sub, &point);
        gen_us += us_since(gen_started);
        let t = Instant::now();
        out.sent += 1;
        let reply = client.report(&sig.user, &job.app_id, job.jsonl);
        let report_us = us_since(t);
        if !matches!(reply, Ok(Response::Reported)) {
            out.failures.count(&reply);
            break;
        }
        done.fetch_add(1, Ordering::Relaxed);
        out.recs.push(Rec {
            sub,
            suggest_us,
            report_us,
            point,
            fallback,
            true_ms: job.true_ms,
            gen_us,
        });
        if sample_gauges && i % GAUGE_EVERY == GAUGE_EVERY - 1 {
            if let Ok(Response::MetricsReport { serving, .. }) = client.metrics() {
                out.queue_depth_max = out.queue_depth_max.max(serving.queue_depth);
                out.inflight_max = out.inflight_max.max(serving.inflight);
            }
        }
    }
    out.busy_s = started.elapsed().as_secs_f64();
    out
}

/// The measured phase: every connection on its own thread, all started
/// together. Returns the per-connection results and the phase's wall time.
pub fn run_load(
    addr: SocketAddr,
    inputs: &Arc<Inputs>,
    sample_gauges: bool,
    done: &Arc<AtomicU64>,
) -> (Vec<ConnResult>, f64) {
    let started = Instant::now();
    let handles: Vec<_> = (0..inputs.conns.len())
        .map(|conn| {
            let inputs = Arc::clone(inputs);
            let done = Arc::clone(done);
            std::thread::spawn(move || drive(addr, &inputs, conn, sample_gauges, &done))
        })
        .collect();
    let results = handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| ConnResult {
                failures: Failures {
                    wire: 1,
                    ..Failures::default()
                },
                ..ConnResult::default()
            })
        })
        .collect();
    (results, started.elapsed().as_secs_f64())
}

/// What the server said and handed back at the end of the run.
pub struct Drained {
    pub serving: MetricsSnapshot,
    pub dashboard: DashboardCounters,
    /// The `Shutdown` frame was acknowledged and every shard backend came
    /// back from the join.
    pub clean: bool,
    /// Tuners resident across the drained shards.
    pub resident: u64,
}

/// Read the final `Metrics` frame, then drain the server over the wire.
pub fn drain(server: Server) -> io::Result<Drained> {
    let mut control = ServeClient::connect(server.local_addr())?;
    let (serving, dashboard) = match control.metrics() {
        Ok(Response::MetricsReport {
            serving, dashboard, ..
        }) => (serving, dashboard),
        other => return Err(io::Error::other(format!("metrics answered {other:?}"))),
    };
    let acked = matches!(control.shutdown_server(), Ok(Response::ShuttingDown));
    drop(control);
    let backends = server.join();
    let clean = acked && !backends.is_empty() && backends.iter().all(Option::is_some);
    let resident = backends
        .iter()
        .flatten()
        .map(AutotuneBackend::tuner_count)
        .sum::<usize>() as u64;
    Ok(Drained {
        serving,
        dashboard,
        clean,
        resident,
    })
}
