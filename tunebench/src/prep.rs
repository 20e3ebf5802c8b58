//! What the measured server boots from: the prefilled state dir and the
//! retrieval corpus, both written before any timing starts.

use std::io;
use std::path::Path;
use std::sync::Arc;

use pipeline::{shard_of, AutotuneBackend, Corpus, Storage};

use crate::gen::Inputs;

/// Submit the prefill stream serially to in-process shard backends that log
/// to `dir`, laid out as the measured server's shards, so the server's
/// recovery replays a real multi-tenant history. Serial submission makes
/// the directory's bytes a function of the seed alone. Returns the point
/// served to each prefill submission.
pub fn prefill(inputs: &Inputs, dir: &Path) -> io::Result<Vec<Vec<f64>>> {
    let shape = inputs.workload.serve_shape();
    let mut shards = AutotuneBackend::new(Arc::new(Storage::new()), None, inputs.root_seed)
        .split_into_shards(shape.shards, shape.shard_capacity);
    let count = shards.len();
    for (i, b) in shards.iter_mut().enumerate() {
        b.persist_to_with(
            &rockserve::shard_state_dir(dir, i, count),
            pipeline::durability::DEFAULT_SNAPSHOT_EVERY,
        )?;
    }
    let mut points = Vec::with_capacity(inputs.prefill.len());
    for &sub in &inputs.prefill {
        let sig = inputs.sig(sub);
        let backend = &mut shards[shard_of(sig.id, count)];
        let (point, _) = backend.suggest_tagged(&sig.user, sig.id, &inputs.context(sub));
        let job = inputs.run(sub, &point);
        backend.ingest_jsonl(&sig.user, &job.app_id, &job.jsonl);
        points.push(point);
    }
    for b in &mut shards {
        b.flush_durability()?;
    }
    Ok(points)
}

/// Write the retrieval corpus lineage under `dir`.
pub fn write_corpus(inputs: &Inputs, dir: &Path) -> io::Result<()> {
    let (mut corpus, _) = Corpus::open(dir)?;
    for entry in &inputs.corpus {
        corpus.upsert(entry.clone())?;
    }
    corpus.sync()
}
