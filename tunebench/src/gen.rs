//! Seeded workload generation: the signatures, their Spark plans, the
//! per-connection submission streams, the prefill stream and the retrieval
//! corpus. Everything here is a pure function of the workload, `--seed` and
//! `--seconds`; the served program only ever sees the generated requests.
//!
//! The seed picks the request order, the tuner seeds and the simulator noise.
//! Which plans exist and which connection owns a signature do not depend on
//! the seed, so runs at different seeds measure the same mix of work.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use optimizers::space::ConfigSpace;
use optimizers::tuner::TuningContext;
use pipeline::CorpusEntry;
use sparksim::noise::NoiseSpec;
use sparksim::plan::PlanNode;
use sparksim::simulator::Simulator;

/// Client connections, each driven by one thread in a closed loop.
pub const CONNECTIONS: usize = 2;

const TPCH_TEMPLATES: usize = workloads::tpch::QUERY_COUNT;
const TPCDS_TEMPLATES: usize = workloads::tpcds::QUERY_COUNT;
const TEMPLATES: usize = TPCH_TEMPLATES + TPCDS_TEMPLATES;

/// Salts that keep the seed-derived streams independent of each other.
const STREAM_SALT: u64 = 0x7E57_57EA_0000_0001;
const NOISE_SALT: u64 = 0x7E57_0015_E000_0002;
const CORPUS_SALT: u64 = 0x7E57_C0A9_0000_0003;
const ROOT_SALT: u64 = 0x7E57_A007_0000_0004;

/// The traffic mixes the benchmark can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 recurring signatures, each submitted many times: tuning work.
    TuneSteady,
    /// Restart from a prefilled state dir, then zipf multi-tenant traffic
    /// over a tuner LRU far smaller than the signature space.
    TenantChurn,
    /// Zipf traffic over never-seen signatures against a retrieval corpus.
    ColdTransfer,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TuneSteady,
        Workload::TenantChurn,
        Workload::ColdTransfer,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneSteady => "tune_steady",
            Workload::TenantChurn => "tenant_churn",
            Workload::ColdTransfer => "cold_transfer",
        }
    }

    /// How the server under test is configured for this workload.
    pub fn serve_shape(self) -> ServeShape {
        match self {
            Workload::TuneSteady => ServeShape {
                shards: 1,
                shard_capacity: 0,
                durable: false,
                retrieval: false,
            },
            // Two shards of 128 rather than four of 64, the same total
            // bound: on a 2-core VM the four-shard layout's suggest p90
            // swung several times wider from run to run (see README.md).
            Workload::TenantChurn => ServeShape {
                shards: 2,
                shard_capacity: 128,
                durable: true,
                retrieval: false,
            },
            Workload::ColdTransfer => ServeShape {
                shards: 2,
                shard_capacity: 0,
                durable: false,
                retrieval: true,
            },
        }
    }
}

/// Server settings a workload runs under.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub shards: usize,
    /// Per-shard tuner LRU bound (`0` = the pipeline default).
    pub shard_capacity: usize,
    /// Whether the server recovers from (and logs to) a state dir.
    pub durable: bool,
    /// Whether the server opens a retrieval corpus.
    pub retrieval: bool,
}

/// One plan shape: a template at a scale factor, with everything a client
/// derives from it once.
pub struct Query {
    pub plan: PlanNode,
    pub embedding: Vec<f64>,
    pub data_size: f64,
    /// Noise-free runtime under the default configuration, ms.
    pub default_ms: f64,
}

/// One recurring query signature.
pub struct Sig {
    pub id: u64,
    pub user: String,
    /// Index into [`Inputs::queries`].
    pub query: usize,
    /// The connection that owns every submission of this signature.
    pub conn: usize,
}

/// One job submission: a `Suggest`, a simulated run and a `Report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Index into [`Inputs::sigs`].
    pub sig: usize,
    /// The signature's submission count before this one (prefill included).
    pub iteration: u32,
}

/// Everything a run sends, generated before the server starts.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Root seed of the backend under test.
    pub root_seed: u64,
    pub queries: Vec<Query>,
    pub sigs: Vec<Sig>,
    /// Submitted serially, in process, before the measured server starts.
    pub prefill: Vec<Submission>,
    /// The measured closed-loop streams, one per connection.
    pub conns: Vec<Vec<Submission>>,
    /// Retrieval corpus entries (empty unless the workload uses retrieval).
    pub corpus: Vec<CorpusEntry>,
    pub space: ConfigSpace,
    pub sim: Simulator,
}

/// What a submission sends and what its simulated run cost.
pub struct Job {
    pub app_id: String,
    pub jsonl: String,
    /// Noise-free runtime of the run, ms.
    pub true_ms: f64,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let seconds = seconds.max(1);
        let mut b = Builder::new(workload, seed);
        match workload {
            Workload::TuneSteady => b.tune_steady(seconds),
            Workload::TenantChurn => b.tenant_churn(seconds),
            Workload::ColdTransfer => b.cold_transfer(seconds),
        }
        b.inputs
    }

    pub fn sig(&self, sub: Submission) -> &Sig {
        &self.sigs[sub.sig]
    }

    pub fn query(&self, sub: Submission) -> &Query {
        &self.queries[self.sig(sub).query]
    }

    pub fn context(&self, sub: Submission) -> TuningContext {
        let q = self.query(sub);
        TuningContext {
            embedding: q.embedding.clone(),
            expected_data_size: q.data_size,
            iteration: sub.iteration,
        }
    }

    /// Run the served `point` on the simulator and render the event log the
    /// `Report` carries. The noise draw depends only on the seed, the
    /// signature and the iteration, so a replay rebuilds the same document.
    pub fn run(&self, sub: Submission, point: &[f64]) -> Job {
        let sig = self.sig(sub);
        let q = self.query(sub);
        let conf = self.space.to_conf(point);
        let noise_seed = rockpool::split_seed(
            rockpool::split_seed(self.seed ^ NOISE_SALT, sig.id),
            u64::from(sub.iteration),
        );
        let run = self.sim.execute(&q.plan, &conf, noise_seed);
        let app_id = format!("{}-{:x}-{}", sig.user, sig.id, sub.iteration);
        let events = self.sim.events_for_run(
            &app_id,
            &format!("artifact-{:x}", sig.id),
            sig.id,
            &q.plan,
            &conf,
            q.embedding.clone(),
            &run,
        );
        Job {
            app_id,
            jsonl: sparksim::event::to_jsonl(&events),
            true_ms: run.metrics.true_ms,
        }
    }

    /// Every submission of the run in the order one signature sees them:
    /// prefill first, then its connection's stream.
    pub fn history_of(&self, sig: usize) -> Vec<Submission> {
        let owner = self.sigs[sig].conn;
        self.prefill
            .iter()
            .chain(&self.conns[owner])
            .filter(|s| s.sig == sig)
            .copied()
            .collect()
    }

    /// Submissions in the measured phase.
    pub fn measured_len(&self) -> usize {
        self.conns.iter().map(Vec::len).sum()
    }
}

/// Template `t` of the 58 (TPC-H first, then TPC-DS) at scale factor `sf`.
fn template_plan(t: usize, sf: f64) -> PlanNode {
    let t = t % TEMPLATES;
    if t < TPCH_TEMPLATES {
        workloads::tpch::query(t + 1, sf)
    } else {
        workloads::tpcds::query(t - TPCH_TEMPLATES + 1, sf)
    }
}

/// Seeded zipf sampler over ranks `0..weights.len()`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(weights: &[f64]) -> Zipf {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

fn zipf_weight(rank: usize, skew: f64) -> f64 {
    1.0 / ((rank + 1) as f64).powf(skew)
}

struct Builder {
    inputs: Inputs,
    embedder: embedding::WorkloadEmbedder,
    /// `(template, sf bits)` → index into `inputs.queries`.
    query_index: std::collections::BTreeMap<(usize, u64), usize>,
    /// Submissions generated so far per signature.
    iterations: Vec<u32>,
}

impl Builder {
    fn new(workload: Workload, seed: u64) -> Builder {
        Builder {
            inputs: Inputs {
                workload,
                seed,
                root_seed: rockpool::split_seed(seed, ROOT_SALT),
                queries: Vec::new(),
                sigs: Vec::new(),
                prefill: Vec::new(),
                conns: vec![Vec::new(); CONNECTIONS],
                corpus: Vec::new(),
                space: ConfigSpace::query_level(),
                sim: Simulator::default_pool(NoiseSpec::low()),
            },
            embedder: embedding::WorkloadEmbedder::virtual_ops(),
            query_index: std::collections::BTreeMap::new(),
            iterations: Vec::new(),
        }
    }

    fn query(&mut self, template: usize, sf: f64) -> usize {
        let key = (template % TEMPLATES, sf.to_bits());
        if let Some(&i) = self.query_index.get(&key) {
            return i;
        }
        let plan = template_plan(template, sf);
        let space = &self.inputs.space;
        let default_ms = self
            .inputs
            .sim
            .true_time_ms(&plan, &space.to_conf(&space.default_point()));
        let i = self.inputs.queries.len();
        self.inputs.queries.push(Query {
            embedding: self.embedder.embed(&plan),
            data_size: plan.leaf_input_rows(),
            default_ms,
            plan,
        });
        self.query_index.insert(key, i);
        i
    }

    fn add_sig(&mut self, id: u64, user: String, query: usize, conn: usize) -> usize {
        self.inputs.sigs.push(Sig {
            id,
            user,
            query,
            conn,
        });
        self.iterations.push(0);
        self.inputs.sigs.len() - 1
    }

    fn next(&mut self, sig: usize) -> Submission {
        let iteration = self.iterations[sig];
        self.iterations[sig] += 1;
        Submission { sig, iteration }
    }

    fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(rockpool::split_seed(self.inputs.seed ^ STREAM_SALT, stream))
    }

    /// 58 templates at scale factor 1 plus six at scale factor 10; each
    /// connection owns 32 and submits all of them once per round, in a
    /// fresh seeded order every round.
    fn tune_steady(&mut self, seconds: u64) {
        const SIGS: usize = 64;
        const ROUNDS_PER_SECOND: u64 = 16;
        for i in 0..SIGS {
            let (template, sf) = if i < TEMPLATES {
                (i, 1.0)
            } else {
                ((i - TEMPLATES) * 9 + 4, 10.0)
            };
            let q = self.query(template, sf);
            self.add_sig(1_000 + i as u64, "steady".to_string(), q, i % CONNECTIONS);
        }
        let rounds = seconds * ROUNDS_PER_SECOND;
        for conn in 0..CONNECTIONS {
            let mut rng = self.rng(conn as u64);
            let mut owned: Vec<usize> = (0..SIGS).filter(|s| s % CONNECTIONS == conn).collect();
            for _ in 0..rounds {
                shuffle(&mut owned, &mut rng);
                for &sig in &owned {
                    let sub = self.next(sig);
                    self.inputs.conns[conn].push(sub);
                }
            }
        }
    }

    /// Zipf(1.1) over 20k signatures of 8 tenants. A serial prefill stream
    /// builds the state dir the measured server recovers from; the measured
    /// stream continues the same signatures' histories.
    fn tenant_churn(&mut self, seconds: u64) {
        const SIGS: usize = 20_000;
        const TENANTS: u64 = 8;
        const PREFILL: usize = 512;
        const SUBMISSIONS_PER_SECOND: u64 = 350;
        let scale = [1.0, 2.0, 5.0];
        for rank in 0..SIGS {
            let q = self.query(rank * 7919 % TEMPLATES, scale[rank % 3]);
            let id = 100_000 + rank as u64;
            let user = format!("tenant-{}", id % TENANTS);
            self.add_sig(id, user, q, 0);
        }
        self.assign_and_stream(1.1, PREFILL, (seconds * SUBMISSIONS_PER_SECOND) as usize);
    }

    /// Zipf(1.1) over 4,000 signatures the server has never seen, against a
    /// corpus of the 58 templates at 17 scale factors (986 entries). Cold
    /// signatures use scale factors between the corpus ones, so each has
    /// close but never identical neighbours. 4,000 signatures stay under the
    /// per-shard tuner bound, so nothing is evicted and every signature is
    /// cold exactly once.
    fn cold_transfer(&mut self, seconds: u64) {
        const SIGS: usize = 4_000;
        const SUBMISSIONS_PER_SECOND: u64 = 1000;
        const CORPUS_SCALES: usize = 17;
        self.build_corpus(CORPUS_SCALES);
        for rank in 0..SIGS {
            let q = self.query(rank * 7919 % TEMPLATES, 1.5 + (rank % 8) as f64 * 2.0);
            self.add_sig(500_000 + rank as u64, "cold".to_string(), q, 0);
        }
        self.assign_and_stream(1.1, 0, (seconds * SUBMISSIONS_PER_SECOND) as usize);
    }

    /// Give each signature to the connection with the smaller zipf mass so
    /// far (hottest first), draw the serial prefill from the whole space and
    /// `measured / 2` submissions per connection from its own signatures.
    fn assign_and_stream(&mut self, skew: f64, prefill: usize, measured: usize) {
        let n = self.inputs.sigs.len();
        let weights: Vec<f64> = (0..n).map(|r| zipf_weight(r, skew)).collect();
        let mut mass = [0.0f64; CONNECTIONS];
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); CONNECTIONS];
        for (rank, w) in weights.iter().enumerate() {
            let conn = (0..CONNECTIONS)
                .min_by(|&a, &b| mass[a].total_cmp(&mass[b]))
                .unwrap_or(0);
            mass[conn] += w;
            owned[conn].push(rank);
            self.inputs.sigs[rank].conn = conn;
        }
        let mut rng = self.rng(u64::MAX);
        let all = Zipf::new(&weights);
        for _ in 0..prefill {
            let sub = self.next(all.draw(&mut rng));
            self.inputs.prefill.push(sub);
        }
        for (conn, ranks) in owned.iter().enumerate() {
            let mut rng = self.rng(conn as u64);
            let own: Vec<f64> = ranks.iter().map(|&r| weights[r]).collect();
            let zipf = Zipf::new(&own);
            for _ in 0..measured / CONNECTIONS {
                let sub = self.next(ranks[zipf.draw(&mut rng)]);
                self.inputs.conns[conn].push(sub);
            }
        }
    }

    /// Corpus entries for every template at `scales` scale factors: the best
    /// of the default and seven random configurations by noise-free runtime.
    /// Seed-free, so every run opens the same corpus.
    fn build_corpus(&mut self, scales: usize) {
        let space = self.inputs.space.clone();
        let mut rng = StdRng::seed_from_u64(CORPUS_SALT);
        for t in 0..TEMPLATES {
            for s in 0..scales {
                let sf = 1.0 + s as f64;
                let plan = template_plan(t, sf);
                let mut best = (space.default_point(), f64::INFINITY);
                let mut total = 0.0;
                for i in 0..8 {
                    let point = if i == 0 {
                        space.default_point()
                    } else {
                        space.random_point(&mut rng)
                    };
                    let ms = self.inputs.sim.true_time_ms(&plan, &space.to_conf(&point));
                    total += ms;
                    if ms < best.1 {
                        best = (point, ms);
                    }
                }
                self.inputs.corpus.push(CorpusEntry {
                    signature: 900_000 + (t * scales + s) as u64,
                    embedding: self.embedder.embed(&plan),
                    best_point: best.0,
                    observations: 8,
                    best_elapsed_ms: best.1,
                    mean_elapsed_ms: total / 8.0,
                    data_size: plan.leaf_input_rows(),
                });
            }
        }
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams_and_owner_per_signature() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7, 1);
            let b = Inputs::generate(w, 7, 1);
            assert_eq!(a.conns, b.conns);
            assert_eq!(a.prefill, b.prefill);
            for (conn, stream) in a.conns.iter().enumerate() {
                assert!(!stream.is_empty());
                assert!(stream.iter().all(|s| a.sigs[s.sig].conn == conn));
            }
        }
    }

    #[test]
    fn iterations_count_up_per_signature_across_prefill() {
        let inputs = Inputs::generate(Workload::TenantChurn, 3, 1);
        let touched: std::collections::BTreeSet<usize> =
            inputs.conns.iter().flatten().map(|s| s.sig).collect();
        for sig in touched {
            let history = inputs.history_of(sig);
            for (i, sub) in history.iter().enumerate() {
                assert_eq!(sub.iteration as usize, i);
            }
        }
    }
}
