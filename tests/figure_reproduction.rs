//! Integration tests asserting that the figure generators reproduce the
//! *shape* of the paper's results (who wins, by roughly what factor, where
//! the crossovers fall).  README's "Figure reproduction" section lists the
//! binaries that print each figure.

use tilewise::figures;

#[test]
fn fig03_sparse_baselines_never_beat_their_dense_baseline() {
    let rows = figures::fig03_baseline_patterns();
    for model in ["VGG", "BERT"] {
        let time_of = |config: &str| {
            rows.iter()
                .find(|r| r.model == model && r.config == config)
                .unwrap_or_else(|| panic!("missing {model}/{config}"))
                .time_ms
        };
        let dense_t = time_of("dense-T");
        let dense_c = time_of("dense-C");
        assert!(dense_t < dense_c, "{model}: tensor cores must beat CUDA cores");
        // EW and VW run on CUDA cores and are slower than dense-C; BW runs on
        // tensor cores and is slower than dense-T (Fig. 3).
        assert!(time_of("ew") > dense_c, "{model}: EW must be slower than dense-C");
        assert!(time_of("vw16") > dense_c, "{model}: VW must be slower than dense-C");
        assert!(time_of("bw32") > dense_t, "{model}: BW must be slower than dense-T");
    }
}

#[test]
fn fig09_tw_crossover_and_granularity_tradeoff() {
    let sparsities = [0.3, 0.5, 0.75];
    let rows = figures::fig09_design_space(&sparsities);
    let get = |pattern: &str, sparsity: f64| {
        rows.iter()
            .find(|p| p.pattern == pattern && (p.sparsity - sparsity).abs() < 1e-9)
            .unwrap_or_else(|| panic!("missing {pattern}@{sparsity}"))
    };
    // TW-128 is slower than dense at 30% sparsity but clearly faster at 75%.
    assert!(get("tw128", 0.3).normalized_latency > 0.95);
    assert!(get("tw128", 0.75).gemm_speedup > 1.5);
    // Accuracy falls with sparsity for every pattern.
    for pattern in ["ew", "tw128", "bw32"] {
        assert!(get(pattern, 0.75).metric <= get(pattern, 0.3).metric + 1e-9);
    }
    // EW is the accuracy upper bound at 75%.
    assert!(get("ew", 0.75).metric >= get("tw128", 0.75).metric - 1e-9);
    assert!(get("ew", 0.75).metric >= get("bw32", 0.75).metric - 1e-9);
}

#[test]
fn fig10_tew_overlay_erases_tensor_core_speedup_but_helps_cuda_cores() {
    let rows = figures::fig10_tew_delta();
    let get = |config: &str| {
        rows.iter().find(|r| r.config == config).unwrap_or_else(|| panic!("missing {config}"))
    };
    let dense = get("dense");
    let tw = get("tw128");
    let tew1 = get("tew128-1.0%");
    // TW is faster than dense on tensor cores; adding even a 1% EW overlay
    // forfeits most of that advantage (Fig. 10b).
    assert!(tw.tensor_latency_norm < dense.tensor_latency_norm);
    assert!(tew1.tensor_latency_norm > tw.tensor_latency_norm * 1.5);
    // On CUDA cores the same TEW-1% model is still much faster than the
    // dense CUDA baseline.
    assert!(tew1.cuda_latency_norm < 0.8);
    // Accuracy improves monotonically with delta.
    let tew5 = get("tew128-5.0%");
    let tew15 = get("tew128-15.0%");
    assert!(tew5.metric >= tew1.metric - 1e-9);
    assert!(tew15.metric >= tew5.metric - 1e-9);
}

#[test]
fn fig11_speedup_scales_and_masking_overhead_shows_at_zero_sparsity() {
    let rows = figures::fig11_scalability(&[0.0, 0.4, 0.75, 0.99]);
    assert!(rows[0].speedup < 1.0, "zero-sparsity TW must be slower than dense (masking overhead)");
    assert!(rows[0].load_transactions_norm > 1.5, "masks should roughly double load requests");
    // Monotone speedup growth, large at 99%.
    for pair in rows.windows(2) {
        assert!(pair[1].speedup > pair[0].speedup);
    }
    assert!(rows.last().unwrap().speedup > 4.0);
    // FLOPS efficiency eventually collapses as the compute shrinks.
    assert!(rows.last().unwrap().flops_efficiency < rows[1].flops_efficiency);
}

#[test]
fn fig12_accuracy_ordering_holds_on_every_model() {
    for (model, _, points) in figures::fig12_accuracy_all_models(&[0.75]) {
        let metric = |label: &str| {
            points.iter().find(|p| p.pattern == label).map(|p| p.metric).expect(label)
        };
        let order = ["ew", "tew128-5.0%", "tw128", "vw16", "bw32"].map(metric);
        assert!(
            order.windows(2).all(|pair| pair[0] >= pair[1]),
            "{model}: expected ew >= tew >= tw >= vw >= bw at 75%, got {order:?}"
        );
    }
}

#[test]
fn fig14_only_tw_extends_the_pareto_frontier() {
    let rows = figures::fig14_pareto(&[0.75]);
    for model in ["BERT-base", "VGG-16", "NMT (LSTM)"] {
        let get = |pattern: &str, core: &str| {
            rows.iter()
                .find(|r| r.model == model && r.pattern == pattern && r.core == core)
                .unwrap_or_else(|| panic!("missing {model}/{pattern}/{core}"))
        };
        assert!(
            get("tw128", "tensor").speedup > 1.0,
            "{model}: TW must beat dense on tensor cores"
        );
        assert!(get("tw128", "cuda").speedup > 1.0, "{model}: TW must beat dense on CUDA cores");
        assert!(get("bw32", "tensor").speedup < 1.0, "{model}: BW must lose on tensor cores");
        assert!(get("ew", "cuda").speedup < 1.0, "{model}: EW must lose on CUDA cores");
        assert!(get("vw16", "cuda").speedup < 1.0, "{model}: VW must lose on CUDA cores");
    }
}

#[test]
fn fig15_optimisations_compose() {
    let rows = figures::fig15_breakdown();
    for model in ["BERT-base", "NMT (LSTM)"] {
        let get = |config: &str| {
            rows.iter()
                .find(|r| r.model == model && r.config == config)
                .unwrap_or_else(|| panic!("missing {model}/{config}"))
        };
        let dense = get("dense");
        let no_transpose = get("w/o transpose");
        let transpose_only = get("transpose only");
        let optimised = get("transpose & fusion");
        let total = |r: &figures::Fig15Row| r.gemm_ms + r.transpose_ms + r.others_ms;
        // Without the transpose optimisation the sparse GEMM hardly benefits.
        assert!(no_transpose.gemm_ms > optimised.gemm_ms * 1.5, "{model}");
        // Per-GEMM transposes add visible transpose time; the boundary
        // strategy removes almost all of it.
        assert!(transpose_only.transpose_ms > optimised.transpose_ms, "{model}");
        // The fully optimised configuration is the fastest sparse one and
        // beats the dense baseline end-to-end.
        assert!(total(optimised) < total(no_transpose), "{model}");
        assert!(total(optimised) < total(transpose_only), "{model}");
        assert!(total(optimised) < total(dense), "{model}");
    }
}

#[test]
fn headline_average_speedups_match_the_paper_shape() {
    let rows = figures::headline_speedups();
    let get = |pattern: &str| {
        rows.iter().find(|r| r.pattern == pattern).unwrap_or_else(|| panic!("missing {pattern}"))
    };
    let tw = get("tw128");
    // Paper: 1.95x average on tensor cores, 2.86x on CUDA cores.  The
    // simulator should land in the same regime (faster than dense on both,
    // CUDA-core advantage at least comparable).
    assert!(
        tw.tensor_speedup > 1.4 && tw.tensor_speedup < 3.5,
        "tensor-core average speedup {:.2}",
        tw.tensor_speedup
    );
    assert!(
        tw.cuda_speedup > 1.6 && tw.cuda_speedup < 4.5,
        "CUDA-core average speedup {:.2}",
        tw.cuda_speedup
    );
    // Every baseline pattern slows the model down on average.
    for pattern in ["bw32", "ew", "vw16"] {
        let r = get(pattern);
        assert!(r.tensor_speedup < 1.0 || r.cuda_speedup < 1.0, "{pattern} should not win");
    }
}
