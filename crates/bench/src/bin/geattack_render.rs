//! Prints sweep reports as the paper's tables and figures.
//!
//! ```text
//! geattack-sweep examples/paper/fig4_8.json
//! geattack-render results/sweep_fig4_8.json [REPORT.json ...]
//! ```
//!
//! The layout follows each report's axes (see [`geattack_bench::render`]):
//! degree-bucket cells become figures against the victim degree, a swept
//! attacker or explainer parameter becomes figures against that parameter,
//! and anything else becomes table blocks. Table 3 is
//! `geattack-sweep --list-families`.

use geattack_bench::cli::paths_only;
use geattack_bench::render::render;
use geattack_core::sweep::SweepReport;

const USAGE: &str = "geattack-render REPORT.json [REPORT.json ...]";

fn main() {
    let paths = paths_only(USAGE);
    if paths.is_empty() {
        eprintln!("expected at least one sweep report path");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let report: SweepReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("{path}: not a sweep report: {e}");
            std::process::exit(2);
        });
        print!("{}", render(&report));
    }
}
