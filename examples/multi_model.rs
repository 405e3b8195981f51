//! Multi-model serving on one memory-constrained device: two models share
//! a VRAM budget that holds only ~1.25x one model's weights, so every
//! switch between them pages weight tiles over PCIe — and the per-model
//! report shows the price as cold-start vs warm latency.
//!
//! ```text
//! cargo run --release --example multi_model
//! ```

use std::sync::Arc;
use std::time::Duration;
use tile_wise_repro::prelude::*;
use tw_memory::PolicyKind;
use tw_serve::MemoryConfig;

fn main() {
    let dims = [192usize, 192, 96];
    // Two independently pruned models of the same architecture (different
    // seeds => different weights), both auto-planned.
    let sessions: Vec<Arc<InferenceSession>> = [7u64, 8]
        .iter()
        .map(|&seed| {
            Arc::new(InferenceSession::new(
                InferenceSession::synthetic_tiles(&dims, 0.75, 32, seed),
                Backend::Auto,
            ))
        })
        .collect();
    let footprint = sessions[0].resident_bytes() as u64;
    let combined: u64 = sessions.iter().map(|s| s.resident_bytes() as u64).sum();

    // The whole point: VRAM below the combined footprint.
    let vram = footprint + footprint / 4;
    println!(
        "hosting 2 models of {:.1} KiB each behind one device with {:.1} KiB VRAM ({:.0}% of their combined footprint)",
        footprint as f64 / 1024.0,
        vram as f64 / 1024.0,
        100.0 * vram as f64 / combined as f64,
    );

    let mut registry = ModelRegistry::with_page_bytes(16 * 1024);
    registry.register("bert-mini", 1, Arc::clone(&sessions[0]));
    registry.register("gpt-mini", 1, Arc::clone(&sessions[1]));

    let batch = 8;
    let config = ServeConfig {
        workers: 2,
        max_batch_size: batch,
        max_batch_wait: Duration::from_millis(1),
        queue_capacity: 256,
        // Stretch simulated device time so one batch dwells ~2ms of wall
        // clock; PCIe paging is priced on the same clock and stretches
        // with it.
        gpu_dwell: Some(GpuDwell { time_scale: 2e-3 / sessions[0].simulated_batch_seconds(batch) }),
        memory: Some(MemoryConfig {
            vram_bytes: Some(vram),
            page_bytes: 16 * 1024,
            policy: PolicyKind::Lru,
        }),
        ..ServeConfig::default()
    };
    let server = Server::start_registry(registry, config);

    // Traffic switches model every 32 requests: the first batch after each
    // switch pages tiles in (cold), the rest run warm.
    let mut generator = RequestGenerator::new(dims[0], 1.0, 3);
    let assignment: Vec<usize> = [0, 1].iter().flat_map(|&model| [model; 32]).collect();
    let (report, _) = drive(server, &closed_loop(generator.payloads(512)), &assignment);

    println!("\n{}", report.summary());
    for model in &report.models {
        println!("  {}", model.summary_line());
    }
    println!(
        "\npaged {:.1} KiB total over PCIe ({:.1}x the combined footprint — that is the thrash a residency-aware cluster router avoids; see `--balancer residency` in the serving benchmark)",
        report.bytes_paged as f64 / 1024.0,
        report.bytes_paged as f64 / combined as f64,
    );
}
