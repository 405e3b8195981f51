//! Traffic-scenario demo: serve the same pruned model under steady,
//! bursty and heavy-tailed open-loop traffic with an interactive/batch
//! class mix, with and without SLO-aware admission control, and compare
//! the per-class outcomes.
//!
//! Run with: `cargo run --release --example traffic_scenarios`

use std::sync::Arc;
use std::time::Duration;
use tile_wise_repro::prelude::*;

fn main() {
    // The shared demo model, exactly as `examples/serving.rs` builds it.
    let session = tile_wise_repro::demo::announced_session(&[128, 128, 64]);
    println!();

    // Offered load is deliberately above what 2 workers can sustain with
    // this dwell, so the scenarios exhibit queueing, priority inversionless
    // scheduling, and (when enabled) shedding.
    let slo = Duration::from_millis(40);
    let requests = 600;
    let scenarios = [
        ("steady ", TrafficSpec::steady(1200.0, slo, requests, session.input_dim(), 7)),
        ("bursty ", TrafficSpec::bursty(1200.0, slo, requests, session.input_dim(), 7)),
        ("pareto ", TrafficSpec::heavy_tail(1200.0, slo, requests, session.input_dim(), 7)),
    ];

    for (name, spec) in scenarios {
        let base = ServeConfig {
            workers: 2,
            max_batch_size: 8,
            max_batch_wait: Duration::from_millis(2),
            // Holds the whole run: pass 1 genuinely queues everything
            // open-loop instead of degrading to blocking backpressure.
            queue_capacity: requests,
            gpu_dwell: Some(GpuDwell { time_scale: 2e3 }),
            ..ServeConfig::default()
        }
        .with_traffic_classes(&spec.classes);

        // Pass 1: no admission control — everything queues, latency absorbs
        // the overload.
        let schedule = spec.schedule();
        let (queued, _) = drive(Server::start(Arc::clone(&session), base.clone()), &schedule, &[0]);

        // Pass 2: SLO-aware admission — shed what cannot meet its deadline
        // or would sit behind a too-deep backlog.
        let admission = AdmissionConfig {
            max_queue_depth: Some(64),
            shed_hopeless: true,
            ..Default::default()
        };
        let (shedding, _) = drive(
            Server::start(Arc::clone(&session), base.with_admission(admission)),
            &schedule,
            &[0],
        );

        println!("== {name} | no admission control: {}", queued.summary());
        for class in &queued.classes {
            println!("     {}", class.summary_line());
        }
        println!("   {name} | SLO-aware admission:  {}", shedding.summary());
        for class in &shedding.classes {
            println!("     {}", class.summary_line());
        }
        let interactive_queued = queued.classes[0].latency.p99_s * 1e3;
        let interactive_shed = shedding.classes[0].latency.p99_s * 1e3;
        println!(
            "   interactive p99: {interactive_queued:.1}ms queued everything -> {interactive_shed:.1}ms with shedding\n",
        );
    }
}
