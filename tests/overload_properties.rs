//! Overload-behavior properties of the serving runtime, driven through the
//! umbrella crate: shed requests are never silently dropped, priority
//! scheduling protects the interactive class, shutdown drains
//! deterministically, and admission control does not tax steady-state
//! goodput.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use tile_wise_repro::prelude::*;

fn tiny_session() -> Arc<InferenceSession> {
    Arc::new(InferenceSession::synthetic_chain(&[24, 32, 12], 0.5, 8, 17, Backend::TileWise))
}

/// Submissions under admission control are conserved: every issued id comes
/// back exactly once, either as a completed response or as a shed record —
/// across arrival processes, shed thresholds and seeds.
#[test]
fn every_submitted_id_completes_or_sheds_exactly_once() {
    let session = tiny_session();
    let slo = Duration::from_millis(25);
    for seed in [1u64, 7, 23] {
        for (label, spec) in [
            ("bursty", TrafficSpec::bursty(3000.0, slo, 150, 24, seed)),
            ("heavy-tail", TrafficSpec::heavy_tail(3000.0, slo, 150, 24, seed)),
        ] {
            let config = ServeConfig {
                workers: 2,
                max_batch_size: 4,
                max_batch_wait: Duration::from_millis(1),
                queue_capacity: 64,
                // Slow "device" + tiny shed depth: overload is certain.
                gpu_dwell: Some(GpuDwell { time_scale: 2e3 }),
                admission: AdmissionConfig {
                    max_queue_depth: Some(6),
                    shed_hopeless: true,
                    ..Default::default()
                },
                ..ServeConfig::default()
            }
            .with_traffic_classes(&spec.classes);

            let schedule = spec.schedule();
            let server = Server::start(Arc::clone(&session), config);
            let mut admitted_ids = HashSet::new();
            let mut shed_ids = HashSet::new();
            for arrival in &schedule {
                match server.submit_to(arrival.class, arrival.payload.clone()).unwrap() {
                    Admission::Admitted(id) => assert!(admitted_ids.insert(id)),
                    Admission::Shed(record) => assert!(shed_ids.insert(record.id)),
                }
            }
            let (report, responses) = server.shutdown();

            let completed_ids: HashSet<u64> = responses.iter().map(|r| r.id).collect();
            assert_eq!(
                completed_ids.len(),
                responses.len(),
                "{label} seed {seed}: duplicate response ids"
            );
            assert_eq!(
                completed_ids, admitted_ids,
                "{label} seed {seed}: admitted ids must complete exactly once"
            );
            assert!(
                shed_ids.is_disjoint(&completed_ids),
                "{label} seed {seed}: an id must not be both shed and completed"
            );
            assert_eq!(
                completed_ids.len() + shed_ids.len(),
                schedule.len(),
                "{label} seed {seed}: ids lost"
            );
            assert_eq!(report.completed, completed_ids.len());
            assert_eq!(report.shed, shed_ids.len());
            assert!(
                report.shed > 0,
                "{label} seed {seed}: the overload scenario should shed something"
            );
        }
    }
}

/// Under mixed-priority overload the interactive class's p99 stays below
/// the batch class's p99: interactive requests jump the backlog via the
/// priority queue, batch requests absorb the queueing delay.
#[test]
fn interactive_p99_beats_batch_p99_under_mixed_priority_load() {
    let session = tiny_session();
    // Offered load well above service capacity so a backlog must form.
    let spec = TrafficSpec::mixed_priority(2000.0, Duration::from_millis(50), 400, 24, 11);
    let config = ServeConfig {
        workers: 2,
        max_batch_size: 8,
        max_batch_wait: Duration::from_millis(1),
        queue_capacity: 512,
        gpu_dwell: Some(GpuDwell { time_scale: 1.5e3 }),
        ..ServeConfig::default()
    }
    .with_traffic_classes(&spec.classes);
    let (report, _) = drive(Server::start(Arc::clone(&session), config), &spec.schedule(), &[0]);

    assert_eq!(report.completed, 400, "no admission control: everything completes");
    let interactive = &report.classes[0];
    let batch = &report.classes[1];
    assert_eq!(interactive.name, "interactive");
    assert_eq!(batch.name, "batch");
    assert!(interactive.completed > 50, "mix should produce interactive traffic");
    assert!(batch.completed > 150, "mix should produce batch traffic");
    assert!(
        interactive.latency.p99_s < batch.latency.p99_s,
        "interactive p99 {:.2}ms must beat batch p99 {:.2}ms under overload",
        interactive.latency.p99_s * 1e3,
        batch.latency.p99_s * 1e3,
    );
}

/// Priority scheduling and per-class accounting must not tax steady-state
/// throughput: on an easily-served closed-loop load, the two-class server
/// stays within 10% of the single-FIFO server's goodput.
#[test]
fn priority_scheduling_keeps_steady_goodput_within_ten_percent_of_fifo() {
    let session = tiny_session();
    let mut generator = RequestGenerator::new(24, 1.0, 5);
    let payloads = generator.payloads(600);
    let base = ServeConfig {
        workers: 2,
        max_batch_size: 8,
        max_batch_wait: Duration::from_millis(1),
        queue_capacity: 128,
        gpu_dwell: Some(GpuDwell { time_scale: 500.0 }),
        ..ServeConfig::default()
    };

    // The two runs are timed independently, so a descheduled worker on a
    // loaded CI host can skew one side; retry a couple of times before
    // declaring the 10% bound violated.
    let mut last = (0.0, 0.0, 0.0);
    for _attempt in 0..3 {
        // FIFO reference: the default single best-effort class.
        let (fifo, _) = drive(
            Server::start(Arc::clone(&session), base.clone()),
            &closed_loop(payloads.clone()),
            &[0],
        );

        // Priority server: same load, everything submitted as the batch
        // class, with a generous interactive lane configured alongside.
        let classed = base.clone().with_classes(vec![
            ClassPolicy::with_deadline("interactive", Duration::from_secs(30)),
            ClassPolicy::best_effort("batch"),
        ]);
        let server = Server::start(Arc::clone(&session), classed);
        for (i, payload) in payloads.iter().enumerate() {
            // A sprinkle of interactive traffic; mostly batch.
            let class = usize::from(i % 10 != 0);
            server.submit_to(class, payload.clone()).unwrap();
        }
        let (classed_report, _) = server.shutdown();

        assert_eq!(fifo.completed, 600);
        assert_eq!(classed_report.completed, 600);
        let ratio = classed_report.goodput_rps() / fifo.goodput_rps();
        if ratio > 0.9 {
            return;
        }
        last = (classed_report.goodput_rps(), fifo.goodput_rps(), ratio);
    }
    panic!(
        "classed goodput {:.1} req/s vs FIFO {:.1} req/s (ratio {:.3}) on every attempt",
        last.0, last.1, last.2,
    );
}

/// `Server::shutdown`'s documented ordering guarantee: close -> drain ->
/// collect -> report.  Whatever the thread interleaving, the report covers
/// every admitted request exactly once, even when some responses were
/// already streamed out mid-run.
#[test]
fn shutdown_drains_deterministically_across_interleavings() {
    let session = tiny_session();
    for round in 0..10u64 {
        let config = ServeConfig {
            workers: 3,
            max_batch_size: 4,
            max_batch_wait: Duration::from_millis(1),
            queue_capacity: 64,
            gpu_dwell: None,
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&session), config);
        let n = 40 + (round as usize % 3) * 7;
        let mut generator = RequestGenerator::new(24, 1.0, round);
        for payload in generator.payloads(n) {
            server.submit_to(0, payload).unwrap();
        }
        // Race the shutdown against in-flight work, sometimes pre-draining
        // a prefix of the responses.
        let drained = if round % 2 == 0 { server.drain_responses().len() } else { 0 };
        let (report, rest) = server.shutdown();
        assert_eq!(
            drained + rest.len(),
            n,
            "round {round}: responses split across drain and shutdown must cover the run"
        );
        assert_eq!(report.completed, n, "round {round}: report covers the whole run");
        assert_eq!(report.shed, 0);
        assert_eq!(report.latency.count, n);
    }
}
