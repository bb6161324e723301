//! # embsr-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`), plus micro-benchmarks on the `embsr-obs` bench harness
//! (see `benches/`).
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --scale tiny|small|full   experiment size (default: small)
//! --threads N               parallel jobs (default: available cores)
//! --train-threads N         largest trainer thread count exp_parallel_scaling
//!                           sweeps (default: 4); other binaries ignore it
//! --dim N                   embedding size override
//! --epochs N                training epochs override
//! --seed N                  RNG seed override
//! --repeats N               training runs averaged per cell (default: 1)
//! --lr X                    learning-rate override
//! --quiet                   progress logging off (console sink at warn)
//! --json                    write run manifests + aggregate bench table
//! --out-dir DIR             manifest directory (default: results)
//! --bench-json PATH         aggregate table (default: BENCH_table3.json)
//! ```
//!
//! Console verbosity is controlled by `EMBSR_LOG` (e.g.
//! `EMBSR_LOG=debug,embsr_train=trace`); see the `embsr-obs` crate docs.
//!
//! Absolute numbers differ from the paper (synthetic data, CPU scale); the
//! harness reproduces the *shape* of every result: orderings, relative
//! improvements and crossovers. See EXPERIMENTS.md for paper-vs-measured.

pub mod harness;

pub use harness::{
    build_recommender, learning_rate, parse_args, run_cell, run_table, EmbsrVariant, HarnessArgs,
    ModelSpec, Scale,
};
