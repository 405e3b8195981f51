//! Property tests for heterogeneous per-layer backend plans.
//!
//! The refactor's core guarantee: *any* assignment of kernel families to
//! layers — dense, tile-wise, CSR, the executable BSR backend, or the
//! auto-planner — produces batched results identical (within
//! kernel tolerance) to the unbatched dense reference.  Backend choice is a
//! performance decision, never a correctness one.

use proptest::prelude::*;
use tile_wise_repro::prelude::*;
use tile_wise_repro::tensor::batch::{stack_payloads, unstack_rows};
use tile_wise_repro::tensor::DEFAULT_TOL;

fn arb_backend() -> impl Strategy<Value = Backend> {
    // `Backend::ALL` covers the four concrete families plus `Auto`.
    (0usize..Backend::ALL.len()).prop_map(|i| Backend::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed per-layer plans (auto-planned and BSR layers included) match
    /// the unbatched dense reference for arbitrary chains and sparsities.
    #[test]
    fn mixed_plans_match_unbatched_dense_reference(
        dims in proptest::collection::vec(8usize..48, 2..5),
        plan_seed in proptest::collection::vec(arb_backend(), 4),
        batch in 1usize..9,
        sparsity in 0.2f64..0.85,
        granularity in 4usize..33,
        seed in any::<u64>(),
    ) {
        let num_layers = dims.len() - 1;
        let plan: Vec<Backend> = (0..num_layers).map(|i| plan_seed[i % plan_seed.len()]).collect();
        let tiles = InferenceSession::synthetic_tiles(&dims, sparsity, granularity, seed);
        let dense = InferenceSession::with_plan(tiles.clone(), &vec![Backend::Dense; num_layers]);
        let mixed = InferenceSession::with_plan(tiles, &plan);

        // Every layer resolved to a concrete registered family, on the host
        // and on the modelled device.
        let resolved = mixed.layer_backends();
        prop_assert_eq!(resolved.len(), num_layers);
        for name in resolved.iter().chain(&mixed.modelled_backends()) {
            prop_assert!(*name != "auto", "layer left unresolved in {:?}", resolved);
        }

        // Batched mixed-backend inference equals per-request dense
        // inference, through the same stacking helpers the worker pool's
        // batch boundary uses.
        let payloads =
            unstack_rows(&Matrix::random_uniform(batch, dims[0], 1.0, seed.wrapping_add(99)));
        let batched = mixed.forward_batch(&stack_payloads(&payloads));
        let outputs = unstack_rows(&batched);
        prop_assert_eq!(outputs.len(), batch);
        for (r, payload) in payloads.iter().enumerate() {
            let expected = dense.forward_one(payload);
            for (j, (a, b)) in outputs[r].iter().zip(&expected).enumerate() {
                prop_assert!(
                    tile_wise_repro::tensor::approx_eq(*a, *b, DEFAULT_TOL),
                    "plan {:?}, request {}, output {}: {} vs dense {}",
                    resolved, r, j, a, b
                );
            }
        }
    }

    /// The auto-planner's modelled family is never priced worse than the
    /// dense fallback, whatever the layer shape — so `--backend auto` can
    /// only improve on `--backend dense` under the cost model.
    #[test]
    fn auto_plan_never_priced_worse_than_dense(
        k in 16usize..128,
        n in 16usize..128,
        sparsity in 0.1f64..0.9,
        granularity in 8usize..65,
        design_batch in 1usize..65,
        seed in any::<u64>(),
    ) {
        use tile_wise_repro::tilewise::planner::WeightExecution;
        let tile = InferenceSession::synthetic_tiles(&[k, n], sparsity, granularity, seed).remove(0);
        let registry = KernelRegistry::standard();
        let auto = AutoPlanner::v100(design_batch);
        let modelled = auto.choose(&registry, &tile).modelled;
        let chosen = auto.price(k, n, &modelled.execution);
        let dense = auto.price(k, n, &WeightExecution::Dense);
        prop_assert!(
            chosen <= dense + 1e-15,
            "auto modelled {} at {:.3e}s but dense costs {:.3e}s (k={} n={} s={:.2})",
            modelled.name, chosen, dense, k, n, sparsity
        );
    }
}
