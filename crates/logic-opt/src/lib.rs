//! Algebraic logic-optimization substrate for the Chortle reproduction.
//!
//! The DAC 1990 Chortle paper assumes its input networks "have already gone
//! through logic optimization" by the standard MIS II script. This crate
//! supplies that substrate:
//!
//! * [`Cube`] / [`Sop`] — product terms and sums of products with weak
//!   (algebraic) division,
//! * [`kernels`] / [`level0_kernels`] — Brayton–McMullen kernel extraction
//!   (level-0 kernels also seed the MIS K≥4 library in the paper's
//!   Section 4.1),
//! * [`factor`] — kernel-driven factoring into AND/OR trees,
//! * [`SopNetwork`] — the multi-level SOP network rewritten by the passes,
//! * [`extract_kernels`] / [`extract_cubes`] — greedy common-subexpression
//!   extraction,
//! * [`optimize`] — the end-to-end script producing the optimized AND/OR
//!   [`Network`](chortle_netlist::Network) both mappers consume.
//!
//! # Examples
//!
//! ```
//! use chortle_netlist::{Network, NodeOp};
//! use chortle_logic_opt::optimize;
//!
//! let mut net = Network::new();
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(NodeOp::Or, vec![a.into(), b.into()]);
//! net.add_output("z", g.into());
//! let (optimized, report) = optimize(&net)?;
//! assert_eq!(optimized.num_outputs(), 1);
//! assert!(report.literals_after <= report.literals_before);
//! # Ok::<(), chortle_netlist::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cube;
mod espresso;
mod extract;
mod factor;
mod kernels;
mod network;
mod script;
mod sop;
mod two_level;

pub use cube::{Cube, Literal};
pub use espresso::{covers_cube, heuristic_minimize};
pub use extract::{extract_cubes, extract_kernels, ExtractReport};
pub use factor::{factor, Factored};
pub use kernels::{is_level0_kernel, kernels, level0_kernels, Kernel};
pub use network::{EliminateReport, SopNetwork};
pub use script::{
    optimize, optimize_sop_network, optimize_sop_network_with_telemetry, optimize_with,
    optimize_with_telemetry, stats, OptimizeOptions, OptimizeReport,
};
pub use sop::Sop;
pub use two_level::{minimize_exact, MAX_EXACT_VARS};
