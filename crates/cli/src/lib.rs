//! Library backing the `cosched` command-line tool.
//!
//! Split from `main.rs` so every command is unit-testable without spawning
//! processes: `main` only parses `std::env::args` and forwards to
//! [`run_command`] with a writer.
//!
//! Commands:
//!
//! * `generate` — synthesize a machine workload and write it as SWF;
//! * `pair` — associate two SWF traces with the 2-minute-window rule (or a
//!   custom window / exact proportion) and write a pairs file;
//! * `simulate` — run the coupled coscheduling simulation from two SWF
//!   traces + a pairs file, printing the metrics table and optionally a
//!   JSON report;
//! * `figures` — print the paper's evaluation tables (Figs. 3–10, the §V-B
//!   validation and the deadlock demonstration) from the campaign cells.

pub mod args;
pub mod commands;

pub use args::{parse, parse_with_flags, Parsed};
pub use commands::{run_command, FLAGS};
