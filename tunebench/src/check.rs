//! Correctness: the served points must be a pure function of each
//! signature's own request history. A sample of signatures is replayed
//! through a fresh in-process backend and must reproduce every served
//! point bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use pipeline::{AutotuneBackend, KnnIndex, Storage, TransferPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gen::{Inputs, Submission};

/// Signatures replayed per run.
const SAMPLE: usize = 8;

const SAMPLE_SALT: u64 = 0x7E57_C4EC_0000_0005;

/// Every served point per signature, in that signature's request order.
pub type Served = BTreeMap<usize, Vec<Vec<f64>>>;

/// Group served points by signature. Points of one signature keep their
/// relative order; how different signatures interleave is forgotten.
pub fn by_signature<'a>(points: impl IntoIterator<Item = (Submission, &'a Vec<f64>)>) -> Served {
    let mut served = Served::new();
    for (sub, point) in points {
        served.entry(sub.sig).or_default().push(point.clone());
    }
    served
}

/// Order-sensitive fold of each signature's points, signatures taken in
/// index order: equal for any interleaving of the connections.
pub fn fingerprint(served: &Served) -> u64 {
    let mut h = 0u64;
    for (sig, points) in served {
        h = rockpool::split_seed(h, *sig as u64);
        for point in points {
            h = rockpool::split_seed(h, point.len() as u64);
            for x in point {
                h = rockpool::split_seed(h, x.to_bits());
            }
        }
    }
    h
}

/// A seeded sample of the signatures the measured phase touched.
pub fn sample(inputs: &Inputs) -> Vec<usize> {
    let mut touched: Vec<usize> = inputs.conns.iter().flatten().map(|s| s.sig).collect();
    touched.sort_unstable();
    touched.dedup();
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ SAMPLE_SALT);
    let mut picked = Vec::new();
    while picked.len() < SAMPLE.min(touched.len()) {
        let i = rng.random_range(0..touched.len());
        picked.push(touched.swap_remove(i));
    }
    picked.sort_unstable();
    picked
}

/// Replay signature `sig`'s whole history (prefill included) through a fresh
/// backend with the run's seed and corpus, checking each point it derives
/// against `served`. `Err` names the first mismatch.
pub fn replay(
    inputs: &Inputs,
    sig: usize,
    served: &[Vec<f64>],
    index: Option<&Arc<KnnIndex>>,
) -> Result<(), String> {
    let mut backend = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.root_seed);
    if let Some(index) = index {
        backend = backend.with_retrieval(Arc::clone(index), TransferPolicy::default());
    }
    let history = inputs.history_of(sig);
    let s = &inputs.sigs[sig];
    if history.len() != served.len() {
        return Err(format!(
            "signature {}: {} submissions scheduled, {} served",
            s.id,
            history.len(),
            served.len()
        ));
    }
    for (sub, want) in history.iter().zip(served) {
        let (got, _) = backend.suggest_tagged(&s.user, s.id, &inputs.context(*sub));
        if !same_bits(&got, want) {
            return Err(format!(
                "signature {} iteration {}: replay derived {got:?}, server sent {want:?}",
                s.id, sub.iteration
            ));
        }
        let job = inputs.run(*sub, &got);
        backend.ingest_jsonl(&s.user, &job.app_id, &job.jsonl);
    }
    Ok(())
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(sig: usize, iteration: u32) -> Submission {
        Submission { sig, iteration }
    }

    #[test]
    fn fingerprint_ignores_connection_interleaving() {
        let p = |x: f64| vec![x, x + 0.5];
        let (a0, a1, b0, b1) = (p(1.0), p(2.0), p(3.0), p(4.0));
        // Connection A owns signature 0, connection B signature 1.
        let one = [
            (sub(0, 0), &a0),
            (sub(1, 0), &b0),
            (sub(0, 1), &a1),
            (sub(1, 1), &b1),
        ];
        let other = [
            (sub(1, 0), &b0),
            (sub(1, 1), &b1),
            (sub(0, 0), &a0),
            (sub(0, 1), &a1),
        ];
        let f = fingerprint(&by_signature(one));
        assert_eq!(f, fingerprint(&by_signature(other)));
        // Reordering one signature's own history does change it.
        let swapped = [
            (sub(0, 0), &a1),
            (sub(0, 1), &a0),
            (sub(1, 0), &b0),
            (sub(1, 1), &b1),
        ];
        assert_ne!(f, fingerprint(&by_signature(swapped)));
        // So does a single flipped bit.
        let nudged = p(f64::from_bits(4.0f64.to_bits() + 1));
        let changed = [
            (sub(0, 0), &a0),
            (sub(0, 1), &a1),
            (sub(1, 0), &b0),
            (sub(1, 1), &nudged),
        ];
        assert_ne!(f, fingerprint(&by_signature(changed)));
    }

    #[test]
    fn replay_reproduces_a_fresh_history_and_rejects_a_wrong_point() {
        let inputs = Inputs::generate(crate::gen::Workload::TuneSteady, 11, 1);
        let sig = sample(&inputs)[0];
        let s = &inputs.sigs[sig];
        let mut backend = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.root_seed);
        let full: Vec<Vec<f64>> = inputs
            .history_of(sig)
            .into_iter()
            .map(|sub| {
                let (point, _) = backend.suggest_tagged(&s.user, s.id, &inputs.context(sub));
                let job = inputs.run(sub, &point);
                backend.ingest_jsonl(&s.user, &job.app_id, &job.jsonl);
                point
            })
            .collect();
        assert!(full.len() > 4);
        assert!(replay(&inputs, sig, &full, None).is_ok());
        // A history cut short is itself a mismatch.
        assert!(replay(&inputs, sig, &full[..4], None).is_err());
        let mut wrong = full.clone();
        wrong[3][0] += 1.0;
        assert!(replay(&inputs, sig, &wrong, None).is_err());
    }
}
