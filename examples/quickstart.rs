//! Quickstart: build a circuit, feed it through the [`deepgate::Engine`]
//! (AIG normalisation + simulated probability labels), fine-tune briefly and
//! serve predictions through an [`deepgate::InferenceSession`].
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use deepgate::dataset::generators;
use deepgate::prelude::*;

fn main() -> Result<(), DeepGateError> {
    // 1. Configure the engine: model size, training recipe and the
    //    labelling pipeline all live behind one builder.
    let mut engine = Engine::builder()
        .model(DeepGateConfig {
            hidden_dim: 32,
            num_iterations: 4,
            ..DeepGateConfig::default()
        })
        .trainer(TrainerConfig {
            epochs: 20,
            learning_rate: 3e-3,
            ..TrainerConfig::default()
        })
        .num_patterns(8_192)
        .build()?;

    // 2. Ingest a gate-level circuit (an 8-bit ALU). `prepare` maps it to
    //    AIG form, labels every node with its logic-simulated signal
    //    probability and encodes the learning representation.
    let source = NetlistSource::from(generators::alu(8));
    let circuits = engine.prepare(&source)?;
    let circuit = &circuits[0];
    println!(
        "circuit graph: {} nodes, {} levels, {} reconvergence skip edges",
        circuit.num_nodes,
        circuit.max_level,
        circuit.skip_edges.len()
    );

    // 3. Fine-tune on this single circuit (a real workflow trains on
    //    thousands of sub-circuits; see `reproduce --table 2` in deepgate-bench).
    let before = engine.evaluate(&circuits)?;
    let history = engine.train(&circuits, &circuits)?;
    let after = engine.evaluate(&circuits)?;
    println!(
        "avg prediction error: {before:.4} before training -> {after:.4} after {} epochs",
        history.epochs.len()
    );

    // 4. Serve through a session: batched prediction plus the per-gate
    //    embeddings downstream EDA tasks would consume.
    let session = engine.session();
    let batch = session.predict_batch(&circuits)?;
    println!("served {} circuits in one batch", batch.len());
    let embeddings = engine.embeddings(circuit)?;
    println!(
        "learned {}-dimensional embeddings for {} gates",
        embeddings.cols(),
        embeddings.rows()
    );
    Ok(())
}
