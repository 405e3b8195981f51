//! Cluster demo: serve bursty open-loop traffic through three
//! *heterogeneous* replicas — an A100-class 4-worker box, a V100 2-worker
//! box and a narrow 1-worker V100 — and compare load-blind round-robin
//! routing against join-shortest-queue and the cost-model-aware
//! least-predicted-wait policy.
//!
//! Run with: `cargo run --release --example cluster`

use std::time::Duration;
use tile_wise_repro::prelude::*;

fn main() {
    // The shared demo model; each replica binds its own kernels over these
    // tiles and prices them on its own device profile.
    let dims = [128, 128, 64];
    let tiles = tile_wise_repro::demo::tiles(&dims);

    // A fleet only an informed balancer can use well: capacity differs 8x
    // between the widest and narrowest replica.
    let specs = vec![
        ReplicaSpec::v100("big", 4, Backend::Auto, 2e3).on(GpuDevice::a100_like()),
        ReplicaSpec::v100("mid", 2, Backend::Auto, 2e3),
        ReplicaSpec::v100("small", 1, Backend::Auto, 2e3),
    ];

    // Bursty load above what the fleet sustains during a burst, so queues
    // actually form and routing decisions matter.
    let spec = TrafficSpec::bursty(1500.0, Duration::from_millis(40), 800, dims[0], 7);
    let schedule = spec.schedule();

    println!(
        "routing {} bursty arrivals across [{}]\n",
        schedule.len(),
        specs
            .iter()
            .map(|s| format!("{} ({} worker(s) on {})", s.name, s.workers, s.device))
            .collect::<Vec<_>>()
            .join(", "),
    );

    let mut interactive_p99 = Vec::new();
    for balancer in [
        BalancerKind::RoundRobin,
        BalancerKind::JoinShortestQueue,
        BalancerKind::LeastPredictedWait,
    ] {
        let config =
            ClusterConfig { queue_capacity: schedule.len(), balancer, ..ClusterConfig::default() }
                .with_traffic_classes(&spec.classes);
        let mut cluster = Cluster::start(tiles.clone(), specs.clone(), config);
        cluster.replay(&schedule, &[0]);
        let report = cluster.shutdown();

        println!("{}", report.summary());
        for line in report.replica_summary() {
            println!("  {line}");
        }
        for class in &report.classes {
            println!("  {}", class.summary_line());
        }
        println!();
        interactive_p99.push((report.balancer.clone(), report.classes[0].latency.p99_s * 1e3));
    }

    let (rr_name, rr_p99) = &interactive_p99[0];
    for (name, p99) in &interactive_p99[1..] {
        println!(
            "interactive p99: {name} {p99:.1}ms vs {rr_name} {rr_p99:.1}ms ({:.2}x)",
            rr_p99 / p99,
        );
    }
}
