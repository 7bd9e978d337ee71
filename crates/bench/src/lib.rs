//! # viper-bench
//!
//! The benchmark harness: one module per table/figure in the paper's
//! evaluation (§5), each exposing a `run()` that returns structured rows
//! and a `render()` that prints the same table the paper reports.
//!
//! Binaries (see `DESIGN.md` for the experiment index):
//!
//! | target | produces |
//! |---|---|
//! | `all_experiments` | every figure and table (Figs. 5, 6, 8-10, Table 1) and the ablations, as EXPERIMENTS.md content |
//! | `ablations` | sync/async, notify vs poll, format, threshold |
//! | `trace_dump` | a fault-injected session's Chrome trace |

pub mod ablations;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;

use viper_hw::{CaptureMode, Route, TransferStrategy};

/// The strategy Viper defaults to in the schedule experiments (§5.4 runs
/// Fig. 10 with the GPU-to-GPU transfer strategy).
pub fn gpu_async() -> TransferStrategy {
    TransferStrategy {
        route: Route::GpuToGpu,
        mode: CaptureMode::Async,
    }
}

/// Render a markdown table from a header and rows of equal arity.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), header.len());
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }
}
