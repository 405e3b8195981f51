//! Cross-crate serving integration tests, driven through the umbrella crate
//! exactly as a downstream user would: prune a model with the real pipeline,
//! serve it through the batched runtime, and pin the functional equivalence
//! of batched sparse inference against unbatched dense inference.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tile_wise_repro::prelude::*;
use tile_wise_repro::pruning::LayerSet;
use tile_wise_repro::tensor::DEFAULT_TOL;
use tilewise::pruner::TileWisePrunerConfig;

/// Prunes a 3-layer chain with the full multi-stage pipeline and returns a
/// session executing those weights with the requested backend.
fn pruned_session(seed: u64, backend: Backend) -> Arc<InferenceSession> {
    let mut layers = LayerSet::new(
        vec!["fc1".into(), "fc2".into(), "fc3".into()],
        vec![
            Matrix::random_normal(96, 128, 1.0, seed),
            Matrix::random_normal(128, 64, 1.0, seed + 1),
            Matrix::random_normal(64, 32, 1.0, seed + 2),
        ],
    );
    let pruner = TileWisePruner::new(TileWisePrunerConfig {
        granularity: 32,
        target_sparsity: 0.7,
        stages: 2,
        importance: tile_wise_repro::pruning::ImportanceMethod::Magnitude,
        apriori: None,
        fine_tune_recovery: 0.0,
    });
    let pruned = pruner.prune(&mut layers);
    Arc::new(InferenceSession::from_pruned(&pruned, backend))
}

#[test]
fn batched_sparse_serving_matches_unbatched_dense_inference() {
    let tw_session = pruned_session(1, Backend::TileWise);
    let dense_session = pruned_session(1, Backend::Dense);

    let mut generator = RequestGenerator::new(tw_session.input_dim(), 1.0, 99);
    let payloads = generator.payloads(200);
    let by_submission: Vec<Vec<f32>> = payloads.clone();

    let config = ServeConfig::default().with_workers(3).with_batching(16, Duration::from_millis(1));
    let (report, responses) =
        drive(Server::start(Arc::clone(&tw_session), config), &closed_loop(payloads), &[0]);

    assert_eq!(report.completed, 200);
    // Ids are assigned in submission order, so id i corresponds to payload i.
    let responses_by_id: HashMap<u64, _> = responses.iter().map(|r| (r.id, r)).collect();
    assert_eq!(responses_by_id.len(), 200, "every id exactly once");
    let mut fused = 0usize;
    for (i, payload) in by_submission.iter().enumerate() {
        let response = responses_by_id[&(i as u64)];
        // The reference path: unbatched (single-request) dense inference.
        let expected = dense_session.forward_one(payload);
        assert_eq!(response.output.len(), expected.len());
        for (j, (a, b)) in response.output.iter().zip(&expected).enumerate() {
            assert!(
                tile_wise_repro::tensor::approx_eq(*a, *b, DEFAULT_TOL),
                "request {i} output {j}: batched sparse {a} vs unbatched dense {b}"
            );
        }
        if response.batch_size > 1 {
            fused += 1;
        }
    }
    // The run must actually have exercised batching, not 200 singletons.
    assert!(fused > 100, "only {fused}/200 requests were fused into real batches");
    // The report carries the per-layer kernel plan the session served with.
    assert_eq!(report.backend_plan, vec!["tile-wise", "tile-wise", "tile-wise"]);
}

#[test]
fn bsr_and_auto_backends_serve_dense_results() {
    // The two newest selections: the executable BlockSparse baseline and the
    // cost-model auto-planner.  Both must serve exactly what unbatched dense
    // inference computes, and `auto` must resolve every layer to a concrete
    // registered family.
    let dense_session = pruned_session(3, Backend::Dense);
    let mut generator = RequestGenerator::new(dense_session.input_dim(), 1.0, 17);
    let payloads = generator.payloads(60);
    let cfg = ServeConfig::default().with_workers(2).with_batching(8, Duration::from_millis(1));
    for backend in [Backend::Bsr, Backend::Auto] {
        let session = pruned_session(3, backend);
        let (report, responses) = drive(
            Server::start(Arc::clone(&session), cfg.clone()),
            &closed_loop(payloads.clone()),
            &[0],
        );
        assert_eq!(report.completed, 60, "{backend} lost requests");
        assert_eq!(report.backend_plan, session.layer_backends());
        assert_eq!(report.modelled_plan, session.modelled_backends());
        for name in report.backend_plan.iter().chain(&report.modelled_plan) {
            assert_ne!(name, "auto", "auto must resolve to a concrete kernel family");
        }
        for response in &responses {
            let expected = dense_session.forward_one(&payloads[response.id as usize]);
            for (a, b) in response.output.iter().zip(&expected) {
                assert!(
                    tile_wise_repro::tensor::approx_eq(*a, *b, DEFAULT_TOL),
                    "{backend} request {}: batched {a} vs unbatched dense {b}",
                    response.id
                );
            }
        }
    }
}

#[test]
fn csr_backend_serves_the_same_results() {
    // The same pruned weights (deterministic pipeline), two kernel families.
    let tw_session = pruned_session(7, Backend::TileWise);
    let csr_session = pruned_session(7, Backend::Csr);
    let mut generator = RequestGenerator::new(tw_session.input_dim(), 1.0, 3);
    let payloads = generator.payloads(40);
    let cfg = ServeConfig::default().with_workers(2).with_batching(8, Duration::from_millis(1));
    let (_, tw_responses) = drive(
        Server::start(Arc::clone(&tw_session), cfg.clone()),
        &closed_loop(payloads.clone()),
        &[0],
    );
    let (_, csr_responses) = drive(Server::start(csr_session, cfg), &closed_loop(payloads), &[0]);
    let tw_by_id: HashMap<u64, _> = tw_responses.iter().map(|r| (r.id, r)).collect();
    for response in &csr_responses {
        let tw_response = tw_by_id[&response.id];
        for (a, b) in response.output.iter().zip(&tw_response.output) {
            assert!(tile_wise_repro::tensor::approx_eq(*a, *b, DEFAULT_TOL));
        }
    }
}

#[test]
fn serving_report_accounts_for_simulated_gpu_time() {
    let tw_session = pruned_session(11, Backend::TileWise);
    let mut generator = RequestGenerator::new(tw_session.input_dim(), 1.0, 5);
    let payloads = generator.payloads(64);
    let config = ServeConfig::default()
        .with_workers(2)
        .with_batching(8, Duration::from_millis(1))
        .with_gpu_dwell(GpuDwell { time_scale: 100.0 });
    let (report, _) = drive(Server::start(tw_session, config), &closed_loop(payloads), &[0]);
    assert_eq!(report.completed, 64);
    // The planner priced every batch: total simulated device time is the
    // per-batch time summed over the batches actually executed.
    assert!(report.sim_gpu_s > 0.0);
    assert!(report.batches >= 64 / 8);
    // With dwell enabled the wall clock covers the critical path of the
    // simulated device time across 2 workers.
    assert!(report.wall.as_secs_f64() >= report.sim_gpu_s * 100.0 / 2.0 * 0.5);
}
