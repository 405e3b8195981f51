//! Serving demo: prune a model, stand up the `tw-serve` runtime, push a
//! burst of requests through the dynamic batcher and worker pool, and read
//! the latency/throughput report.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::Duration;
use tile_wise_repro::prelude::*;

fn main() {
    // 1. An executable pruned model: three layers at 75% tile-wise sparsity,
    //    with `Backend::Auto` binding each layer to the kernel family
    //    (dense / tile-wise / CSR / BSR) this host runs fastest, timed as
    //    the session is built, while the simulated GPU is priced as the
    //    family the cost model prices cheapest — the shared demo setup all
    //    serving examples use.
    let session = tile_wise_repro::demo::announced_session(&[256, 256, 128, 32]);
    println!("{} resident weight bytes", session.resident_bytes());

    // 2. Start the runtime: batches of up to 16 requests, 2 ms wait budget,
    //    3 workers, and a simulated-GPU dwell replaying the modelled V100
    //    1000x slower so device occupancy is visible in the demo.
    let config = ServeConfig::default()
        .with_workers(3)
        .with_batching(16, Duration::from_millis(2))
        .with_gpu_dwell(GpuDwell { time_scale: 1e3 });
    let server = Server::start(Arc::clone(&session), config);

    // 3. A closed-loop burst of 500 synthetic requests, submitted under
    //    blocking backpressure; the server then shuts down (draining the
    //    queue) and reports.  Ids follow submission order, so the first
    //    payload is request 0.
    let mut generator = RequestGenerator::new(session.input_dim(), 1.0, 7);
    let payloads = generator.payloads(500);
    let (check_id, check_payload) = (0, payloads[0].clone());
    let (report, responses) = drive(server, &closed_loop(payloads), &[0]);

    // 4. Inspect the report.
    println!("{}", report.summary());
    for w in &report.workers {
        println!(
            "  worker {}: {} batches, {} requests, cpu {:?}, sim-GPU {:.4}s",
            w.worker, w.batches, w.requests, w.cpu_busy, w.sim_gpu_s,
        );
    }

    // 5. The served result equals direct (unbatched) inference.
    let served = responses.iter().find(|r| r.id == check_id).expect("response present");
    let direct = session.forward_one(&check_payload);
    let max_diff =
        served.output.iter().zip(&direct).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    println!(
        "request {} came back in a batch of {} with max |batched - direct| = {:.2e}",
        check_id, served.batch_size, max_diff,
    );
    assert!(max_diff < 1e-3, "served output must match direct inference");
}
