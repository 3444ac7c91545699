//! Name-based registry of every known graph family.
//!
//! The registry is the single point where a scenario spec's `family` string
//! becomes a generator: the synthetic families of this crate (BA-Shapes,
//! powerlaw-cluster and its `huge` preset, Tree-Cycles) and the three citation
//! datasets wrapped by [`geattack_graph::CitationFamily`]. Names are case-insensitive and accept
//! `_` for `-`.

use geattack_graph::{CitationFamily, DatasetName, GraphFamily};

use crate::families::{BaShapes, PowerlawCluster, TreeCycles};

/// Registry keys of every built-in family, in presentation order.
pub const FAMILY_NAMES: [&str; 7] = [
    "ba-shapes",
    "powerlaw-cluster",
    "powerlaw-cluster-huge",
    "tree-cycles",
    "citeseer",
    "cora",
    "acm",
];

/// Resolves a family name to its generator. Returns `None` for unknown names.
pub fn resolve(name: &str) -> Option<Box<dyn GraphFamily>> {
    match canonical(name).as_str() {
        "ba-shapes" => Some(Box::new(BaShapes::default())),
        "powerlaw-cluster" => Some(Box::new(PowerlawCluster::default())),
        "powerlaw-cluster-huge" => Some(Box::new(PowerlawCluster::huge())),
        "tree-cycles" => Some(Box::new(TreeCycles::default())),
        "citeseer" => Some(Box::new(CitationFamily::new(DatasetName::Citeseer))),
        "cora" => Some(Box::new(CitationFamily::new(DatasetName::Cora))),
        "acm" => Some(Box::new(CitationFamily::new(DatasetName::Acm))),
        _ => None,
    }
}

/// The error message for a family name the registry does not know.
pub fn unknown_family(name: &str) -> String {
    format!("unknown graph family `{name}` (known: {})", FAMILY_NAMES.join(", "))
}

/// Whether `name` resolves to a known family.
pub fn is_known(name: &str) -> bool {
    FAMILY_NAMES.contains(&canonical(name).as_str())
}

/// Canonical registry form of a family name: lower-case, `-` separators.
pub fn canonical(name: &str) -> String {
    name.trim().to_ascii_lowercase().replace('_', "-")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_family_resolves_to_its_name() {
        for name in FAMILY_NAMES {
            let family = resolve(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(family.name(), name);
        }
    }

    #[test]
    fn names_are_case_and_separator_insensitive() {
        assert!(resolve("BA_Shapes").is_some());
        assert!(resolve("  Tree-Cycles ").is_some());
        assert!(is_known("POWERLAW_CLUSTER"));
        assert!(!is_known("erdos-renyi"));
        assert!(resolve("erdos-renyi").is_none());
    }
}
