//! Declarative sweep specifications (JSON).
//!
//! A [`SweepSpec`] describes a full experiment grid —
//! `{family x scale x seed x attacker x explainer x budget}` — that the
//! `geattack-sweep` binary expands, executes and aggregates. Attacker and
//! explainer names are kept as strings here so the spec layer stays free of the
//! pipeline crates; the sweep executor resolves (and rejects) them against
//! `geattack-core` before any cell runs.
//!
//! Specs serialize to/from JSON through the workspace's serde shim. The
//! deserializer fills in defaults for omitted grid axes, so the minimal useful
//! sweep spec is just a name, a family list and an attacker list.

use serde::{Deserialize, Error, Serialize, Value};

use crate::registry;

/// Per-victim edge budget of one grid axis value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetSpec {
    /// The paper's default: `Δ = max(degree(victim), 1)`.
    Degree,
    /// A fixed number of edge insertions for every victim.
    Fixed(usize),
    /// The degree-bucket protocol of Figures 2, 3 and 7: instead of the cell's
    /// victims, attack up to `victims` correctly classified test nodes of
    /// exactly this clean-graph degree (in split order), each with `Δ = degree`.
    DegreeBucket(usize),
}

impl BudgetSpec {
    /// Parses `"degree"`, `"degree=D"` (a degree bucket) or a positive
    /// integer string/number of edges.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("degree") {
            return Ok(BudgetSpec::Degree);
        }
        if let Some(degree) = s.strip_prefix("degree=") {
            return match degree.parse::<usize>() {
                Ok(degree) if degree > 0 => Ok(BudgetSpec::DegreeBucket(degree)),
                _ => Err(format!("degree bucket must be a positive degree, got `{s}`")),
            };
        }
        match s.parse::<usize>() {
            Ok(edges) if edges > 0 => Ok(BudgetSpec::Fixed(edges)),
            _ => Err(format!(
                "budget must be `degree`, `degree=D` or a positive edge count, got `{s}`"
            )),
        }
    }

    /// Canonical string form (`degree`, `degree=D` or the edge count).
    pub fn label(&self) -> String {
        match self {
            BudgetSpec::Degree => "degree".to_string(),
            BudgetSpec::Fixed(edges) => edges.to_string(),
            BudgetSpec::DegreeBucket(degree) => format!("degree={degree}"),
        }
    }
}

impl Serialize for BudgetSpec {
    fn serialize(&self) -> Value {
        Value::String(self.label())
    }
}

impl Deserialize for BudgetSpec {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => BudgetSpec::parse(s).map_err(Error),
            Value::Number(n) if *n >= 1.0 && n.fract() == 0.0 => Ok(BudgetSpec::Fixed(*n as usize)),
            other => Err(Error(format!(
                "budget must be `\"degree\"` or an edge count, found {}",
                other.kind()
            ))),
        }
    }
}

/// Most result cells one sweep grid may expand to. Far above any real sweep
/// (the checked-in specs stay under 50), and small enough that expanding and
/// planning a grid never makes a large allocation, whatever a submitted spec
/// lists.
pub const MAX_RESULT_CELLS: usize = 100_000;

/// A declarative experiment grid over graph families, attackers, explainers,
/// seeds and budgets.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (used for the report and its JSON artifact).
    pub name: String,
    /// Graph families to sweep (registry names).
    pub families: Vec<String>,
    /// Dataset scales; defaults to `[0.1]`.
    pub scales: Vec<f64>,
    /// Independent seeds; defaults to `[0, 1]`.
    pub seeds: Vec<u64>,
    /// Attacker names (resolved by the executor against its attacker registry).
    pub attackers: Vec<String>,
    /// Explainer names; defaults to `["gnnexplainer"]`.
    pub explainers: Vec<String>,
    /// Per-victim budgets; defaults to `[degree]`.
    pub budgets: Vec<BudgetSpec>,
    /// Victims per cell (per degree bucket for [`BudgetSpec::DegreeBucket`]
    /// budgets); defaults to 8.
    pub victims: usize,
    /// Use the fast pipeline profile (reduced explainer epochs etc.); defaults
    /// to `true`. `false` selects the paper-scale training profile.
    pub quick: bool,
}

impl SweepSpec {
    /// A minimal spec with the documented defaults for every omitted axis.
    pub fn new(name: impl Into<String>, families: Vec<String>, attackers: Vec<String>) -> Self {
        Self {
            name: name.into(),
            families,
            scales: vec![0.1],
            seeds: vec![0, 1],
            attackers,
            explainers: vec!["gnnexplainer".to_string()],
            budgets: vec![BudgetSpec::Degree],
            victims: 8,
            quick: true,
        }
    }

    /// Parses a sweep spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: SweepSpec = serde_json::from_str(text).map_err(|e| format!("invalid sweep spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation: every axis non-empty, at most
    /// [`MAX_RESULT_CELLS`] result cells, families known, scales in range.
    /// Attacker/explainer strings are resolved by the executor.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("sweep name must not be empty".to_string());
        }
        for (axis, empty) in [
            ("families", self.families.is_empty()),
            ("scales", self.scales.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("attackers", self.attackers.is_empty()),
            ("explainers", self.explainers.is_empty()),
            ("budgets", self.budgets.is_empty()),
        ] {
            if empty {
                return Err(format!("sweep axis `{axis}` must not be empty"));
            }
        }
        let axes = [
            self.families.len(),
            self.scales.len(),
            self.seeds.len(),
            self.attackers.len(),
            self.explainers.len(),
            self.budgets.len(),
        ];
        if axes
            .iter()
            .try_fold(1usize, |cells, &len| cells.checked_mul(len))
            .is_none_or(|cells| cells > MAX_RESULT_CELLS)
        {
            return Err(format!(
                "sweep grid {} exceeds {MAX_RESULT_CELLS} result cells",
                axes.map(|len| len.to_string()).join(" x ")
            ));
        }
        if let Some(family) = self.families.iter().find(|f| !registry::is_known(f)) {
            return Err(registry::unknown_family(family));
        }
        for &scale in &self.scales {
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(format!("sweep scale {scale} out of (0, 1]"));
            }
        }
        if self.victims == 0 {
            return Err("sweep needs at least one victim per cell".to_string());
        }
        // Duplicate axis values would silently run duplicate cells and inflate
        // the aggregates, so they are rejected up front. Attacker/explainer
        // *aliases* that resolve to the same kind are caught by the executor,
        // which knows the resolution.
        reject_duplicates("families", self.families.iter().map(|f| registry::canonical(f)))?;
        reject_duplicates("scales", self.scales.iter().map(|s| s.to_bits()))?;
        reject_duplicates("seeds", self.seeds.iter().copied())?;
        reject_duplicates(
            "attackers",
            self.attackers.iter().map(|a| a.trim().to_ascii_lowercase()),
        )?;
        reject_duplicates(
            "explainers",
            self.explainers.iter().map(|e| e.trim().to_ascii_lowercase()),
        )?;
        reject_duplicates("budgets", self.budgets.iter().map(|b| b.label()))?;
        if self.budgets.contains(&BudgetSpec::DegreeBucket(0)) {
            return Err("degree buckets must name a positive degree".to_string());
        }
        Ok(())
    }

    /// Stable content fingerprint of the spec (32 hex chars).
    ///
    /// Two processes sweeping the same grid derive the same hash, so shard
    /// reports can prove at merge time that they were produced by one spec.
    /// The hash covers the canonical serialized form, which makes it
    /// insensitive to JSON layout but sensitive to every axis value.
    pub fn content_hash(&self) -> String {
        let canonical = serde_json::to_string(self).expect("specs always serialize");
        geattack_cache::hash::hex128(geattack_cache::fnv1a128(canonical.as_bytes()))
    }

    /// Number of (family, scale, seed, explainer) experiment preparations.
    pub fn prepared_cells(&self) -> usize {
        self.families.len() * self.scales.len() * self.seeds.len() * self.explainers.len()
    }

    /// Total number of result cells in the grid.
    pub fn total_cells(&self) -> usize {
        self.prepared_cells() * self.attackers.len() * self.budgets.len()
    }
}

impl Serialize for SweepSpec {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(self.name.clone())),
            ("families".to_string(), self.families.serialize()),
            ("scales".to_string(), self.scales.serialize()),
            ("seeds".to_string(), self.seeds.serialize()),
            ("attackers".to_string(), self.attackers.serialize()),
            ("explainers".to_string(), self.explainers.serialize()),
            ("budgets".to_string(), self.budgets.serialize()),
            ("victims".to_string(), self.victims.serialize()),
            ("quick".to_string(), self.quick.serialize()),
        ])
    }
}

impl Deserialize for SweepSpec {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let defaults = SweepSpec::new("", Vec::new(), Vec::new());
        let mut budgets: Option<Vec<BudgetSpec>> = optional(value, "budgets")?;
        let victims = match value.get_field("victims") {
            // `{"degrees": [...], "per_degree": N}` is shorthand for one
            // degree-bucket budget per listed degree with N victims each; the
            // spec serializes back in that canonical budget-axis form.
            Ok(object @ Value::Object(fields)) => {
                if let Some((key, _)) = fields.iter().find(|(k, _)| k != "degrees" && k != "per_degree") {
                    return Err(Error(format!(
                        "unknown key `{key}` in `victims` (expected `degrees`, `per_degree`)"
                    )));
                }
                if !matches!(budgets.as_deref(), None | Some([BudgetSpec::Degree])) {
                    return Err(Error(
                        "`victims` by degree sets the budget to each victim's degree; drop `budgets`".to_string(),
                    ));
                }
                let degrees: Vec<usize> = Vec::deserialize(object.get_field("degrees")?)?;
                budgets = Some(degrees.into_iter().map(BudgetSpec::DegreeBucket).collect());
                usize::deserialize(object.get_field("per_degree")?)?
            }
            _ => optional(value, "victims")?.unwrap_or(defaults.victims),
        };
        Ok(Self {
            name: String::deserialize(value.get_field("name")?)?,
            families: Vec::deserialize(value.get_field("families")?)?,
            scales: optional(value, "scales")?.unwrap_or(defaults.scales),
            seeds: optional(value, "seeds")?.unwrap_or(defaults.seeds),
            attackers: Vec::deserialize(value.get_field("attackers")?)?,
            explainers: optional(value, "explainers")?.unwrap_or(defaults.explainers),
            budgets: budgets.unwrap_or(defaults.budgets),
            victims,
            quick: optional(value, "quick")?.unwrap_or(defaults.quick),
        })
    }
}

/// Errors when a sweep axis contains the same (canonicalized) value twice.
fn reject_duplicates<T: std::hash::Hash + Eq + std::fmt::Debug>(
    axis: &str,
    values: impl Iterator<Item = T>,
) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for value in values {
        if let Some(duplicate) = seen.replace(value) {
            return Err(format!("sweep axis `{axis}` lists {duplicate:?} more than once"));
        }
    }
    Ok(())
}

/// Reads an optional object field: absent (or `null`) means `None`.
fn optional<T: Deserialize>(value: &Value, field: &str) -> Result<Option<T>, Error> {
    match value.get_field(field) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(present) => T::deserialize(present).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_json_fills_defaults() {
        let spec =
            SweepSpec::from_json(r#"{ "name": "demo", "families": ["ba-shapes", "cora"], "attackers": ["fga-t"] }"#)
                .unwrap();
        assert_eq!(spec.scales, vec![0.1]);
        assert_eq!(spec.seeds, vec![0, 1]);
        assert_eq!(spec.explainers, vec!["gnnexplainer".to_string()]);
        assert_eq!(spec.budgets, vec![BudgetSpec::Degree]);
        assert_eq!(spec.victims, 8);
        assert!(spec.quick);
        // 2 families x 1 scale x 2 seeds x 1 explainer.
        assert_eq!(spec.prepared_cells(), 4);
        assert_eq!(spec.total_cells(), 4);
    }

    #[test]
    fn explicit_axes_roundtrip_through_json() {
        let mut spec = SweepSpec::new(
            "full",
            vec!["sbm".to_string(), "tree-cycles".to_string()],
            vec!["geattack".to_string(), "nettack".to_string()],
        );
        spec.budgets = vec![BudgetSpec::Degree, BudgetSpec::Fixed(3)];
        spec.victims = 5;
        spec.quick = false;
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back = SweepSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_family_is_rejected() {
        let err =
            SweepSpec::from_json(r#"{ "name": "x", "families": ["petersen"], "attackers": ["fga"] }"#).unwrap_err();
        assert!(err.contains("unknown graph family"), "{err}");
    }

    #[test]
    fn empty_axes_and_bad_scales_are_rejected() {
        let err = SweepSpec::from_json(r#"{ "name": "x", "families": [], "attackers": ["fga"] }"#).unwrap_err();
        assert!(err.contains("families"), "{err}");
        let err =
            SweepSpec::from_json(r#"{ "name": "x", "families": ["sbm"], "attackers": ["fga"], "scales": [1.5] }"#)
                .unwrap_err();
        assert!(err.contains("out of (0, 1]"), "{err}");
    }

    #[test]
    fn grids_beyond_the_cell_cap_are_rejected() {
        // 20,000 scales x 20,000 seeds: a ~0.5 MB spec whose 4e8 cells would
        // abort the process if the grid were ever expanded.
        let scales: Vec<String> = (1..=20_000).map(|i| (i as f64 / 20_000.0).to_string()).collect();
        let seeds: Vec<String> = (0..20_000).map(|i: u64| i.to_string()).collect();
        let text = format!(
            r#"{{ "name": "huge", "families": ["cora"], "attackers": ["fga"], "scales": [{}], "seeds": [{}] }}"#,
            scales.join(","),
            seeds.join(",")
        );
        assert!(text.len() < 1 << 20, "fits a serve request line");
        let err = SweepSpec::from_json(&text).unwrap_err();
        assert!(err.contains("1 x 20000 x 20000 x 1 x 1 x 1"), "{err}");
        assert!(err.contains("exceeds 100000 result cells"), "{err}");

        // The cap itself is allowed; twice the cap is not.
        let mut spec = SweepSpec::new("wide", vec!["cora".to_string()], vec!["fga".to_string()]);
        spec.seeds = (0..MAX_RESULT_CELLS as u64).collect();
        assert!(spec.validate().is_ok());
        spec.scales = vec![0.1, 0.2];
        assert!(spec.validate().unwrap_err().contains("result cells"));
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        // Case/separator variants of the same family are one value after
        // canonicalization, so they would duplicate every cell of the grid.
        let err =
            SweepSpec::from_json(r#"{ "name": "d", "families": ["sbm", "SBM"], "attackers": ["fga"] }"#).unwrap_err();
        assert!(err.contains("`families`") && err.contains("more than once"), "{err}");
        let err =
            SweepSpec::from_json(r#"{ "name": "d", "families": ["sbm"], "attackers": ["fga"], "seeds": [1, 2, 1] }"#)
                .unwrap_err();
        assert!(err.contains("`seeds`"), "{err}");
        let err =
            SweepSpec::from_json(r#"{ "name": "d", "families": ["sbm"], "attackers": ["fga", "FGA"] }"#).unwrap_err();
        assert!(err.contains("`attackers`"), "{err}");
        let err =
            SweepSpec::from_json(r#"{ "name": "d", "families": ["sbm"], "attackers": ["fga"], "budgets": [2, "2"] }"#)
                .unwrap_err();
        assert!(err.contains("`budgets`"), "{err}");
    }

    #[test]
    fn budgets_accept_strings_and_numbers() {
        let spec = SweepSpec::from_json(
            r#"{ "name": "b", "families": ["sbm"], "attackers": ["fga"], "budgets": ["degree", "2", 4] }"#,
        )
        .unwrap();
        assert_eq!(
            spec.budgets,
            vec![BudgetSpec::Degree, BudgetSpec::Fixed(2), BudgetSpec::Fixed(4)]
        );
        assert!(BudgetSpec::parse("0").is_err());
        assert!(BudgetSpec::parse("many").is_err());
        assert_eq!(BudgetSpec::Fixed(7).label(), "7");
    }

    #[test]
    fn victims_by_degree_expand_into_degree_bucket_budgets() {
        let spec = SweepSpec::from_json(
            r#"{ "name": "d", "families": ["cora"], "attackers": ["nettack"],
                 "victims": {"degrees": [1, 2, 3], "per_degree": 8} }"#,
        )
        .unwrap();
        assert_eq!(spec.victims, 8);
        // The canonical form lists the buckets on the budget axis and
        // round-trips to the same spec (and so the same content hash).
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            json.contains(r#""budgets":["degree=1","degree=2","degree=3"]"#),
            "{json}"
        );
        assert_eq!(SweepSpec::from_json(&json).unwrap(), spec);
        assert_eq!(BudgetSpec::parse("degree=4"), Ok(BudgetSpec::DegreeBucket(4)));

        for (bad, needle) in [
            (r#"{"degrees": [1], "per_degree": 2, "seed": 1}"#, "unknown key `seed`"),
            (r#"{"degrees": [0], "per_degree": 2}"#, "positive degree"),
            (r#"{"degrees": [1, 1], "per_degree": 2}"#, "more than once"),
            (r#"{"degrees": [1], "per_degree": 0}"#, "at least one victim"),
            (r#"{"per_degree": 2}"#, "missing field `degrees`"),
            (r#"{"degrees": [1], "per_degree": 2}, "budgets": [2]"#, "drop `budgets`"),
        ] {
            let text = format!(r#"{{ "name": "d", "families": ["cora"], "attackers": ["fga"], "victims": {bad} }}"#);
            let err = SweepSpec::from_json(&text).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn content_hash_is_stable_and_axis_sensitive() {
        let spec = SweepSpec::new("h", vec!["sbm".to_string()], vec!["fga".to_string()]);
        let hash = spec.content_hash();
        assert_eq!(hash.len(), 32);
        assert_eq!(hash, spec.clone().content_hash(), "hashing is deterministic");
        // Round-tripping through JSON (layout changes, content does not)
        // preserves the hash.
        let reparsed = SweepSpec::from_json(&serde_json::to_string_pretty(&spec).unwrap()).unwrap();
        assert_eq!(reparsed.content_hash(), hash);
        // Any axis change moves the hash.
        let mut other = spec.clone();
        other.seeds.push(7);
        assert_ne!(other.content_hash(), hash);
        let mut other = spec.clone();
        other.victims += 1;
        assert_ne!(other.content_hash(), hash);
        let mut other = spec;
        other.budgets = vec![BudgetSpec::Fixed(2)];
        assert_ne!(other.content_hash(), hash);
    }
}
