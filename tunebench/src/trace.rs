//! The traced run: the measured request stream replayed in process, layer
//! by layer, with a span around every call into a layer's public functions.
//!
//! The backend's tuning work is timed through a mirror: a `RockhopperTuner`
//! per signature, built through the public builder exactly as the backend
//! builds its own (same `signature_seed`, same guardrail, same transfer
//! handoff) and fed the same observations. Its time is subtracted from the
//! backend's span to give the backend's self time, and only after checking
//! that the mirror derived the very point the backend served.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use optimizers::tuner::{Outcome, Tuner};
use pipeline::durability::DEFAULT_SNAPSHOT_EVERY;
use pipeline::{shard_of, AutotuneBackend, Corpus, KnnIndex, Provenance, Storage, TransferPolicy};
use rockhopper::{Guardrail, RockhopperTuner};
use rockserve::proto::{self, Request, Response};

use crate::check::same_bits;
use crate::gen::Inputs;
use crate::load::{BootDirs, ConnResult, Rec};

/// One timed call. Spans of one submission share `req`; `parent` is the
/// span index of the enclosing call (the submission itself, or the backend
/// call a mirror call stands in for).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span log, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as span `name`; returns its value and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let value = std::hint::black_box(f());
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        (value, self.spans.len() - 1)
    }

    /// Open a span whose end is set later by [`Tracer::close`].
    fn open(&mut self, name: &'static str, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    fn us(&self, id: usize) -> f64 {
        self.spans[id].us()
    }

    /// Durations of every span named `name`, µs.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Write the spans as tab-separated lines: id, parent, req, name, start
    /// and end in ns since the trace began.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer numbers the replay measures itself.
#[derive(Debug, Default)]
pub struct Replay {
    pub suggest_self_us: Vec<f64>,
    pub ingest_self_us: Vec<f64>,
    /// Wire round trip minus the in-process time of the same request's
    /// layers, per request.
    pub edge_suggest_us: Vec<f64>,
    pub edge_report_us: Vec<f64>,
    pub report_frame_bytes: Vec<f64>,
    pub model_suggests: u64,
    pub mirror_suggests: u64,
    pub open_s: f64,
    pub index_build_s: f64,
    pub recover_s: f64,
    pub replayed: u64,
    pub quarantined: u64,
    pub flush_us: Vec<f64>,
    /// Share of the replay's wall time outside the timed layer calls.
    pub trace_overhead: f64,
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    prefill_points: &'a [Vec<f64>],
    index: Option<Arc<KnnIndex>>,
    policy: TransferPolicy,
    mirrors: BTreeMap<usize, RockhopperTuner>,
}

impl Ctx<'_> {
    /// Build signature `sig`'s mirror as the backend's `admit_tuner` builds
    /// a fresh tuner, transfer handoff included, then bring it up to date
    /// with the signature's prefill history (untimed).
    fn new_mirror(
        &self,
        t: &mut Tracer,
        req: u64,
        parent: usize,
        sig: usize,
    ) -> Result<(RockhopperTuner, f64), String> {
        let inputs = self.inputs;
        let s = &inputs.sigs[sig];
        let mut builder = RockhopperTuner::builder(inputs.space.clone())
            .seed(RockhopperTuner::signature_seed(inputs.root_seed, s.id))
            .guardrail(Some(Guardrail::default()));
        let mut eligible_us = 0.0;
        let mut seeded = Vec::new();
        if let Some(index) = &self.index {
            let embedding = &inputs.queries[s.query].embedding;
            let (eligible, id) = t.time("rockindex.eligible", req, Some(parent), || {
                self.policy.eligible(index, embedding)
            });
            eligible_us = t.us(id);
            if let Some(nearest) = eligible.first() {
                builder = builder.start_at(nearest.best_point.clone());
            }
            seeded = eligible;
        }
        let mut tuner = builder.build();
        for n in &seeded {
            tuner.history.push(
                n.best_point.clone(),
                n.data_size,
                self.policy.discounted_elapsed_ms(n),
            );
        }
        for (sub, want) in inputs.prefill.iter().zip(self.prefill_points) {
            if sub.sig != sig {
                continue;
            }
            let got = tuner.suggest(&inputs.context(*sub));
            if !same_bits(&got, want) {
                return Err(format!(
                    "mirror of signature {} diverged from the prefill at iteration {}",
                    s.id, sub.iteration
                ));
            }
            observe_doc(&mut tuner, inputs, &inputs.run(*sub, &got).jsonl);
        }
        Ok((tuner, eligible_us))
    }
}

fn observe_doc(tuner: &mut RockhopperTuner, inputs: &Inputs, doc: &str) {
    for row in pipeline::etl::extract_batch_from_jsonl(doc).rows {
        tuner.observe(
            &row.point_in(&inputs.space),
            &Outcome::measured(row.elapsed_ms, row.data_size),
        );
    }
}

/// Replay the measured stream in process with spans. `dirs` are private
/// copies of what the server booted from; `wire` is the traced wire run the
/// replayed requests are matched against.
pub fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    prefill_points: &[Vec<f64>],
    dirs: &BootDirs,
    wire: &[ConnResult],
) -> Result<Replay, String> {
    const SETUP: u64 = u64::MAX;
    let shape = inputs.workload.serve_shape();
    let mut out = Replay::default();
    let mut backend = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.root_seed);
    let mut cx = Ctx {
        inputs,
        prefill_points,
        index: None,
        policy: TransferPolicy::default(),
        mirrors: BTreeMap::new(),
    };
    if let Some(dir) = &dirs.corpus {
        let (corpus, id) = t.time("rockindex.open", SETUP, None, || Corpus::open(dir));
        out.open_s = t.us(id) / 1e6;
        let corpus = corpus.map_err(|e| format!("corpus open: {e}"))?.0;
        let (index, id) = t.time("rockindex.index_build", SETUP, None, || {
            KnnIndex::build(&corpus)
        });
        out.index_build_s = t.us(id) / 1e6;
        let index = Arc::new(index);
        backend = backend.with_retrieval(Arc::clone(&index), cx.policy);
        cx.index = Some(index);
    }
    let mut shards = backend.split_into_shards(shape.shards, shape.shard_capacity);
    let count = shards.len();
    if let Some(dir) = &dirs.state {
        for (i, b) in shards.iter_mut().enumerate() {
            let (report, id) = t.time("rockdur.recover", SETUP, None, || {
                b.recover_from_with(
                    &rockserve::shard_state_dir(dir, i, count),
                    DEFAULT_SNAPSHOT_EVERY,
                )
            });
            let report = report.map_err(|e| format!("recovery: {e}"))?;
            out.recover_s += t.us(id) / 1e6;
            out.replayed += report.replayed;
            out.quarantined += report.quarantined;
        }
    }

    // Connections interleaved round-robin: each signature keeps its own
    // order, which is all the served points depend on.
    let longest = wire.iter().map(|c| c.recs.len()).max().unwrap_or(0);
    let started = Instant::now();
    let mut covered_us = 0.0;
    for i in 0..longest {
        for (conn, result) in wire.iter().enumerate() {
            let Some(rec) = result.recs.get(i) else {
                continue;
            };
            let req = ((conn as u64) << 32) | i as u64;
            let root = t.open("bench.submission", req);
            submit(t, &mut cx, &mut shards, &mut out, req, root, rec)?;
            t.close(root);
            covered_us += t
                .spans
                .iter()
                .rev()
                .take_while(|s| s.req == req)
                .filter(|s| s.parent == Some(root))
                .map(Span::us)
                .sum::<f64>();
        }
    }
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    out.trace_overhead = if wall_us > 0.0 {
        (wall_us - covered_us) / wall_us
    } else {
        0.0
    };
    if shape.durable {
        for b in &mut shards {
            let (flushed, id) = t.time("rockdur.flush", SETUP, None, || b.flush_durability());
            flushed.map_err(|e| format!("flush: {e}"))?;
            out.flush_us.push(t.us(id));
        }
    }
    Ok(out)
}

/// One submission through every layer on its path, in process.
fn submit(
    t: &mut Tracer,
    cx: &mut Ctx<'_>,
    shards: &mut [AutotuneBackend],
    out: &mut Replay,
    req: u64,
    root: usize,
    rec: &Rec,
) -> Result<(), String> {
    let inputs = cx.inputs;
    let sub = rec.sub;
    let sig = inputs.sig(sub);
    let r = Some(root);
    let wire_err = |e: rockserve::WireError| format!("request {req}: {e}");

    // Suggest: request codec, routing, backend.
    let ctx = inputs.context(sub);
    let request = Request::Suggest {
        user: sig.user.clone(),
        signature: sig.id,
        embedding: ctx.embedding.clone(),
        expected_data_size: ctx.expected_data_size,
        iteration: ctx.iteration,
    };
    let (payload, enc) = t.time("proto.encode", req, r, || proto::encode_request(&request));
    let payload = payload.map_err(wire_err)?;
    let (decoded, dec) = t.time("proto.decode_suggest", req, r, || {
        proto::decode_request(&payload)
    });
    decoded.map_err(wire_err)?;
    let (shard, _) = t.time("sharding.shard_of", req, r, || {
        shard_of(sig.id, shards.len())
    });
    let backend = &mut shards[shard];
    let ((point, provenance), bs) = t.time("backend.suggest", req, r, || {
        backend.suggest_tagged(&sig.user, sig.id, &ctx)
    });
    if !same_bits(&point, &rec.point) {
        return Err(format!(
            "request {req}: in-process backend derived {point:?}, the server sent {:?}",
            rec.point
        ));
    }
    let mut layer_us = 0.0;
    if let (Some(index), false) = (&cx.index, cx.mirrors.contains_key(&sub.sig)) {
        let (hit, id) = t.time("rockindex.lookup", req, Some(bs), || {
            cx.policy.lookup(index, &ctx.embedding)
        });
        layer_us += t.us(id);
        if provenance == Provenance::Transferred {
            let served = hit.map(|n| n.best_point).unwrap_or_default();
            if !same_bits(&served, &point) {
                return Err(format!(
                    "request {req}: transferred point is not the lookup's"
                ));
            }
        }
    }
    if provenance == Provenance::Explored {
        if !cx.mirrors.contains_key(&sub.sig) {
            let (mirror, eligible_us) = cx.new_mirror(t, req, bs, sub.sig)?;
            layer_us += eligible_us;
            cx.mirrors.insert(sub.sig, mirror);
        }
        let mirror = cx.mirrors.get_mut(&sub.sig).ok_or("mirror vanished")?;
        if !mirror.is_disabled() && mirror.history.len() >= 4 {
            out.model_suggests += 1;
        }
        out.mirror_suggests += 1;
        let (mirrored, id) = t.time("rockhopper.suggest", req, Some(bs), || mirror.suggest(&ctx));
        if !same_bits(&mirrored, &point) {
            return Err(format!(
                "request {req}: mirror tuner derived {mirrored:?}, the backend {point:?}"
            ));
        }
        layer_us += t.us(id);
    }
    out.suggest_self_us.push(t.us(bs) - layer_us);
    let response = Response::Suggestion {
        point: point.clone(),
        fallback: None,
        provenance: Some(provenance.to_string()),
    };
    let in_process = t.us(enc) + t.us(dec) + t.us(bs) + codec_round_trip(t, req, r, &response)?;
    out.edge_suggest_us.push(rec.suggest_us - in_process);

    // The simulated run, then Report: codec, the server's own parse, ingest.
    let (job, _) = t.time("bench.sim", req, r, || inputs.run(sub, &point));
    let request = Request::Report {
        user: sig.user.clone(),
        app_id: job.app_id.clone(),
        jsonl: job.jsonl.clone(),
    };
    let (payload, enc) = t.time("proto.encode", req, r, || proto::encode_request(&request));
    let payload = payload.map_err(wire_err)?;
    out.report_frame_bytes.push(payload.len() as f64);
    let (decoded, dec) = t.time("proto.decode_report", req, r, || {
        proto::decode_request(&payload)
    });
    decoded.map_err(wire_err)?;
    let (_, parse) = t.time("event.parse", req, r, || {
        sparksim::event::from_jsonl_lossy(&job.jsonl)
    });
    let critical_us =
        t.us(enc) + t.us(dec) + t.us(parse) + codec_round_trip(t, req, r, &Response::Reported)?;
    out.edge_report_us.push(rec.report_us - critical_us);
    let backend = &mut shards[shard];
    let (_, bi) = t.time("backend.ingest", req, r, || {
        backend.ingest_jsonl(&sig.user, &job.app_id, &job.jsonl)
    });
    let (batch, ex) = t.time("etl.extract", req, Some(bi), || {
        pipeline::etl::extract_batch_from_jsonl(&job.jsonl)
    });
    let mut layer_us = t.us(ex);
    if !cx.mirrors.contains_key(&sub.sig) {
        // A transferred suggest creates no tuner; the backend builds it,
        // with the handoff, on this first report.
        let (mirror, eligible_us) = cx.new_mirror(t, req, bi, sub.sig)?;
        layer_us += eligible_us;
        cx.mirrors.insert(sub.sig, mirror);
    }
    let mirror = cx.mirrors.get_mut(&sub.sig).ok_or("mirror vanished")?;
    for row in batch.rows {
        let point = row.point_in(&inputs.space);
        let outcome = Outcome::measured(row.elapsed_ms, row.data_size);
        let (_, id) = t.time("rockhopper.observe", req, Some(bi), || {
            mirror.observe(&point, &outcome)
        });
        layer_us += t.us(id);
    }
    out.ingest_self_us.push(t.us(bi) - layer_us);
    Ok(())
}

/// Encode and decode a response frame payload, as the server and client do;
/// returns the two calls' µs.
fn codec_round_trip(
    t: &mut Tracer,
    req: u64,
    parent: Option<usize>,
    response: &Response,
) -> Result<f64, String> {
    let (payload, enc) = t.time("proto.encode", req, parent, || {
        proto::encode_response(response)
    });
    let payload = payload.map_err(|e| format!("request {req}: {e}"))?;
    let (decoded, dec) = t.time("proto.decode_response", req, parent, || {
        proto::decode_response(&payload)
    });
    decoded.map_err(|e| format!("request {req}: {e}"))?;
    Ok(t.us(enc) + t.us(dec))
}
