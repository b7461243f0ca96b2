//! Declarative workload scenarios for the LCL experiment system.
//!
//! The ROADMAP north-star asks for "as many scenarios as you can
//! imagine"; this crate makes scenarios **data** instead of code. A
//! [`ScenarioSpec`] (JSON — built-in presets or `scenarios/*.json` files)
//! names a set of graph families with their knobs, a `(sizes × seeds)`
//! grid, and the target algorithms; [`run_spec`] expands it through the
//! same deterministic batch engine every experiment binary uses and lands
//! the rows in the persistent run store with the spec's content hash in
//! the manifest — so every stored run is traceable to the exact workload
//! description that produced it.
//!
//! The family layer fronts the `lcl_graph::gen` generator zoo:
//!
//! | [`FamilySpec`] variant | generator |
//! |---|---|
//! | `RandomRegular { d }` | `gen::random_regular` (pairing model; rejection on the stub array, only the accepted pairing built) |
//! | `Gnm { avg_deg }` | `gen::gnm` (Erdős–Rényi `G(n,m)`) |
//! | `Torus` | `gen::torus` (2-D wraparound grid) |
//! | `Hypercube` | `gen::hypercube` |
//! | `Caterpillar { leaf_frac }` | `gen::caterpillar` |
//! | `LiftedGadget { delta, height }` | `gen::random_lift` of a `(log, Δ)`-gadget base |
//! | `Pods { pod_size, cross_links }` | `gen::pods` (sparse cross-linked cliques; streams natively via `gen::pods_into`) |
//!
//! The `scenarios` binary (`list` / `describe` / `run`) is the CLI
//! surface; see the repository README's "Scenario catalog" section for
//! the spec schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod catalog;
mod run;
mod spec;
pub mod verify;

pub use cache::SnapshotCache;
pub use catalog::{builtins, catalog, find, load_dir, DEFAULT_SPEC_DIR};
pub use run::{
    expand, experiment_name, run_spec, schedule_for, try_measure_cell_full, try_measure_cell_store,
    CellError, CellMeasurement, MeasureOpts, EXPERIMENT_ID,
};
pub use spec::{AlgoSpec, FamilySpec, ScenarioSpec, SpecError};
pub use verify::{verify_run, RowViolation, VerifiedRun};
