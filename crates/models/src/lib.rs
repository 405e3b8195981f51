//! DNN workload definitions and accuracy modelling.
//!
//! The paper evaluates three models — BERT-base (Transformer), VGG-16 (CNN)
//! and an LSTM-based NMT model — on real datasets (MNLI/SQuAD, ImageNet,
//! IWSLT En-Vi).  Reproducing those numbers verbatim needs the datasets and
//! weeks of GPU fine-tuning, so this crate substitutes:
//!
//! * [`workload`] — exact layer/GEMM shape inventories of the three models
//!   (the quantity the *latency* results depend on), plus the non-GEMM op
//!   structure that drives the end-to-end breakdown of Fig. 15.
//! * [`synthetic`] — seeded weight/gradient generators whose importance
//!   statistics reproduce what the paper measures on the real models:
//!   uneven importance across layers (Fig. 5) and clustered, column-local
//!   importance inside a matrix (Fig. 6/13).
//! * [`accuracy`] — an importance-retention accuracy proxy, anchored per
//!   task to the paper's reported dense accuracy and EW pruning curve.
//! * [`mlp`] — a small, genuinely trainable MLP classifier (our own SGD)
//!   that is pruned with every pattern and fine-tuned for real, confirming
//!   end-to-end that the accuracy ordering EW > TW > VW ≈ BW emerges from
//!   actual training rather than from the proxy's construction.
//! * [`requests`] — seeded synthetic inference-request payloads for the
//!   `tw-serve` serving runtime and its benchmarks.
//! * [`traffic`] — open-loop traffic schedules: pluggable arrival processes
//!   (Poisson, bursty ON/OFF, heavy-tailed Pareto) over mixed request
//!   classes (interactive vs. batch), rendered deterministically so every
//!   serving scenario replays from its seed.

pub mod accuracy;
pub mod mlp;
pub mod requests;
pub mod synthetic;
pub mod traffic;
pub mod workload;

pub use accuracy::{AccuracyModel, TaskKind};
pub use mlp::{MlpClassifier, MlpTrainConfig, SyntheticClassification};
pub use requests::RequestGenerator;
pub use synthetic::{SyntheticModel, SyntheticModelConfig};
pub use traffic::{closed_loop, pace, Arrival, ArrivalProcess, TrafficClass, TrafficSpec};
pub use workload::{AuxOp, FixedGemm, ModelKind, PrunableGemm, Workload};
