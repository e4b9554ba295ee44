//! End-to-end farm benchmark with per-layer attribution.
//!
//! One command (`src/main.rs`) runs a farm workload through the public
//! entry point `foc_servers::farm::run_farm`, checks the answers and
//! prints every metric by name and unit. `--trace 0` gives the
//! end-to-end metrics a user of the farm would see; `--trace 1` gives
//! the per-layer metrics, measured from outside by calling the public
//! functions of each layer. See `README.md` for the tables and the
//! reasoning, and `../BENCHMARK.json` for the contract with the driver.

pub mod gate;
pub mod host;
pub mod kernel;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;
