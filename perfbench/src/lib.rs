//! Host-time benchmark of the microreboot cluster simulator.
//!
//! Three workloads (`steady`, `campaign`, `trace`) drive the program
//! through its public API and its `urb-chaos` CLI. The untraced pass
//! measures what a user waits for; the traced pass replays the same runs
//! one kernel event at a time and attributes host time, allocations and
//! work to the layers. See `README.md` for the metrics and predictions.

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod engine;
pub mod measure;
pub mod pins;
pub mod report;
pub mod runs;
