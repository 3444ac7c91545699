//! Open, name-keyed registries for attackers and explainers.
//!
//! The paper compares a fixed set of attackers (Tables 1–2) against two
//! explainers, and the original pipeline hard-coded both sets as closed enums.
//! Related work (*Explainable Graph Neural Networks Under Fire*, *Graph Neural
//! Network Explanations are Fragile*) makes clear the joint-attack evaluation
//! extends to many more attacker/explainer pairings, so the engine resolves
//! both axes through registries instead — mirroring the scenario-family
//! registry of `geattack-scenarios`.
//!
//! A registry maps case-insensitive names to trait-object factories:
//! [`AttackerPlugin`] builds a [`TargetedAttack`] from a [`Prepared`]
//! experiment, [`ExplainerPlugin`] builds the inspector [`Explainer`]. The
//! paper's [`AttackerKind`] / [`ExplainerKind`] enums remain as the builtin
//! registrations, and [`crate::engine::Engine`] carries its own registry pair
//! so custom attackers and explainers can be registered per engine without
//! touching any enum. A registry lookup is the only way from a name to an
//! attacker or explainer.
//!
//! An axis entry may carry parameters, `name:key=value,...`: GEAttack takes
//! `lambda` and `inner_steps` (Figures 4, 6 and 8), both explainers take
//! `size`, the explanation size `L` (Figure 5). Plugins validate them at
//! resolution, so a bad entry fails submission; results report under names
//! such as `GEAttack[lambda=20]`.

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use geattack_attack::TargetedAttack;
use geattack_explain::Explainer;

use crate::error::{GeError, Result};
use crate::pipeline::{AttackerKind, AttackerParams, ExplainerKind, Prepared};

/// A named factory of attackers. `build` runs once per (prepared cell,
/// attacker) — per-victim cost lives inside the returned [`TargetedAttack`].
pub trait AttackerPlugin: Send + Sync {
    /// Display name used in reports and result cells (e.g. `"FGA-T&E"`).
    fn name(&self) -> &str;

    /// Case-insensitive lookup keys this plugin answers to (the display name
    /// is always accepted too).
    fn aliases(&self) -> Vec<String> {
        Vec::new()
    }

    /// Builds an attacker instance for one prepared experiment.
    fn build(&self, prepared: &Prepared) -> Result<Box<dyn TargetedAttack + Sync>>;

    /// This attacker with the `key=value` parameters of a spec entry applied
    /// (see the module docs). Plugins take no parameters by default.
    fn with_params(&self, _params: &[(&str, &str)]) -> Result<Arc<dyn AttackerPlugin>> {
        Err(no_params("attacker", self.name()))
    }

    /// Rejects cells this attacker cannot run on state prepared for
    /// `explainer` (a parameter the attacker built there does not have).
    fn validate_for(&self, _explainer: ExplainerKind) -> Result<()> {
        Ok(())
    }
}

/// A named factory of inspector explainers.
pub trait ExplainerPlugin: Send + Sync {
    /// Display name used in reports and result cells (e.g. `"PGExplainer"`).
    fn name(&self) -> &str;

    /// Case-insensitive lookup keys this plugin answers to (the display name
    /// is always accepted too).
    fn aliases(&self) -> Vec<String> {
        Vec::new()
    }

    /// Which builtin preparation behaviour cells inspected by this explainer
    /// need: [`ExplainerKind::PgExplainer`] trains a PGExplainer during
    /// preparation (and keys the cache accordingly); everything else prepares
    /// like GNNExplainer (no extra trained state). Custom explainers that only
    /// need the graph and the trained model keep the default.
    fn prepare_kind(&self) -> ExplainerKind {
        ExplainerKind::GnnExplainer
    }

    /// Builds the inspector for one prepared experiment.
    fn inspector(&self, prepared: &Prepared) -> Result<Box<dyn Explainer + Sync>>;

    /// The explanation size `L` cells inspected by this explainer use, when
    /// it overrides the pipeline default.
    fn explanation_size(&self) -> Option<usize> {
        None
    }

    /// This explainer with the `key=value` parameters of a spec entry applied
    /// (see the module docs). Plugins take no parameters by default.
    fn with_params(&self, _params: &[(&str, &str)]) -> Result<Arc<dyn ExplainerPlugin>> {
        Err(no_params("explainer", self.name()))
    }
}

fn no_params(kind: &str, name: &str) -> GeError {
    GeError::InvalidSpec(format!("{kind} `{name}` takes no parameters"))
}

fn unknown_param(owner: &str, key: &str, expected: &str) -> GeError {
    GeError::InvalidSpec(format!("unknown {owner} parameter `{key}` (expected {expected})"))
}

/// Parses one parameter value, rejecting anything outside `range`.
fn param<T: FromStr + PartialOrd + Display>(
    owner: &str,
    key: &str,
    value: &str,
    range: RangeInclusive<T>,
) -> Result<T> {
    match value.trim().parse::<T>() {
        Ok(v) if range.contains(&v) => Ok(v),
        _ => Err(GeError::InvalidSpec(format!(
            "{owner} parameter `{key}` must be in [{}, {}], got `{value}`",
            range.start(),
            range.end()
        ))),
    }
}

/// The builtin attacker registration: a thin adapter over [`AttackerKind`],
/// plus the GEAttack overrides of a parameterised entry.
struct BuiltinAttacker {
    kind: AttackerKind,
    params: AttackerParams,
    name: String,
}

impl AttackerPlugin for BuiltinAttacker {
    fn name(&self) -> &str {
        &self.name
    }

    fn aliases(&self) -> Vec<String> {
        self.kind.aliases().iter().map(|a| a.to_string()).collect()
    }

    fn build(&self, prepared: &Prepared) -> Result<Box<dyn TargetedAttack + Sync>> {
        Ok(prepared.tuned_attacker(self.kind, &self.params))
    }

    fn with_params(&self, params: &[(&str, &str)]) -> Result<Arc<dyn AttackerPlugin>> {
        if self.kind != AttackerKind::GeAttack {
            return Err(no_params("attacker", &self.name));
        }
        let mut tuned = self.params;
        for &(key, value) in params {
            match key {
                "lambda" => tuned.lambda = Some(param(&self.name, key, value, 0.0..=1e6)?),
                "inner_steps" => tuned.inner_steps = Some(param(&self.name, key, value, 1..=100)?),
                _ => return Err(unknown_param(&self.name, key, "`lambda`, `inner_steps`")),
            }
        }
        let labels: Vec<String> = [
            tuned.lambda.map(|v| format!("lambda={v}")),
            tuned.inner_steps.map(|v| format!("inner_steps={v}")),
        ]
        .into_iter()
        .flatten()
        .collect();
        Ok(Arc::new(BuiltinAttacker {
            kind: self.kind,
            params: tuned,
            name: format!("{}[{}]", self.kind.name(), labels.join(",")),
        }))
    }

    fn validate_for(&self, explainer: ExplainerKind) -> Result<()> {
        // Under PGExplainer, GEAttack is PG-GEAttack, which has no inner
        // explainer loop to set the steps of.
        if self.params.inner_steps.is_some() && explainer == ExplainerKind::PgExplainer {
            return Err(GeError::InvalidSpec(format!(
                "`{}` sets `inner_steps`, which PG-GEAttack (GEAttack under PGExplainer) does not have",
                self.name
            )));
        }
        Ok(())
    }
}

/// The builtin explainer registration: a thin adapter over [`ExplainerKind`],
/// plus the explanation size of a parameterised entry.
struct BuiltinExplainer {
    kind: ExplainerKind,
    size: Option<usize>,
    name: String,
}

impl ExplainerPlugin for BuiltinExplainer {
    fn name(&self) -> &str {
        &self.name
    }

    fn aliases(&self) -> Vec<String> {
        self.kind.aliases().iter().map(|a| a.to_string()).collect()
    }

    fn prepare_kind(&self) -> ExplainerKind {
        self.kind
    }

    fn explanation_size(&self) -> Option<usize> {
        self.size
    }

    fn with_params(&self, params: &[(&str, &str)]) -> Result<Arc<dyn ExplainerPlugin>> {
        let mut size = self.size;
        for &(key, value) in params {
            match key {
                "size" => size = Some(param(&self.name, key, value, 1..=1000)?),
                _ => return Err(unknown_param(&self.name, key, "`size`")),
            }
        }
        Ok(Arc::new(BuiltinExplainer {
            kind: self.kind,
            size,
            name: format!("{}[size={}]", self.kind.name(), size.unwrap_or_default()),
        }))
    }

    fn inspector(&self, prepared: &Prepared) -> Result<Box<dyn Explainer + Sync>> {
        // `prepare_kind` prepared the cell for this kind, so the prepared
        // state's own inspector is this explainer; state prepared for the
        // other kind surfaces as a `Prepare` error, not the wrong inspector.
        if prepared.config().explainer != self.kind {
            return Err(GeError::Prepare(format!(
                "{} inspector requested on state prepared for {}",
                self.kind.name(),
                prepared.config().explainer.name()
            )));
        }
        prepared.inspector()
    }
}

/// Canonical registry key: trimmed, lower-case.
fn key(name: &str) -> String {
    name.trim().to_ascii_lowercase()
}

/// Splits an axis entry `name:key=value,...` into its name and parameters,
/// rejecting empty, malformed and repeated keys.
fn split_params(entry: &str) -> Result<(&str, Vec<(&str, &str)>)> {
    let Some((name, list)) = entry.split_once(':') else {
        return Ok((entry, Vec::new()));
    };
    let malformed = || {
        GeError::InvalidSpec(format!(
            "`{entry}`: parameters after `:` must be distinct `key=value` pairs separated by commas"
        ))
    };
    let mut params: Vec<(&str, &str)> = Vec::new();
    for pair in list.split(',') {
        let (k, v) = pair.split_once('=').ok_or_else(malformed)?;
        let (k, v) = (k.trim(), v.trim());
        if k.is_empty() || v.is_empty() || params.iter().any(|(seen, _)| *seen == k) {
            return Err(malformed());
        }
        params.push((k, v));
    }
    Ok((name, params))
}

macro_rules! registry {
    ($name:ident, $plugin:ident, $kind_label:literal) => {
        /// A name-keyed, case-insensitive collection of plugins. Cheap to
        /// clone (entries are shared `Arc`s), so an engine session can carry
        /// its own snapshot across threads.
        #[derive(Clone)]
        pub struct $name {
            entries: Vec<Arc<dyn $plugin>>,
        }

        impl $name {
            /// An empty registry (no names resolve).
            pub fn empty() -> Self {
                Self { entries: Vec::new() }
            }

            /// Registered display names, in registration order.
            pub fn names(&self) -> Vec<String> {
                self.entries.iter().map(|p| p.name().to_string()).collect()
            }

            /// Registers a plugin, rejecting any name or alias that collides
            /// with an existing registration (case-insensitively).
            pub fn register(&mut self, plugin: Arc<dyn $plugin>) -> Result<()> {
                let mut keys = vec![key(plugin.name())];
                keys.extend(plugin.aliases().iter().map(|a| key(a)));
                for existing in &self.entries {
                    let taken = std::iter::once(existing.name().to_string())
                        .chain(existing.aliases())
                        .map(|k| key(&k))
                        .collect::<Vec<_>>();
                    if let Some(collision) = keys.iter().find(|k| taken.contains(k)) {
                        return Err(GeError::Registry(format!(
                            "{} name `{collision}` is already registered (by `{}`)",
                            $kind_label,
                            existing.name()
                        )));
                    }
                }
                self.entries.push(plugin);
                Ok(())
            }

            /// Resolves a case-insensitive name or alias, with optional
            /// `:key=value,...` parameters, to its plugin.
            pub fn resolve(&self, name: &str) -> Result<Arc<dyn $plugin>> {
                let (base, params) = split_params(name)?;
                let wanted = key(base);
                let plugin = self
                    .entries
                    .iter()
                    .find(|p| key(p.name()) == wanted || p.aliases().iter().any(|a| key(a) == wanted))
                    .cloned()
                    .ok_or_else(|| GeError::unknown($kind_label, base, self.names()))?;
                if params.is_empty() {
                    Ok(plugin)
                } else {
                    plugin.with_params(&params)
                }
            }

            /// Whether a name resolves.
            pub fn is_known(&self, name: &str) -> bool {
                self.resolve(name).is_ok()
            }
        }
    };
}

registry!(AttackerRegistry, AttackerPlugin, "attacker");
registry!(ExplainerRegistry, ExplainerPlugin, "explainer");

impl AttackerRegistry {
    /// The paper's seven attackers (Tables 1–2), in column order.
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        for kind in AttackerKind::ALL {
            registry
                .register(Arc::new(BuiltinAttacker {
                    kind,
                    params: AttackerParams::default(),
                    name: kind.name().to_string(),
                }))
                .unwrap_or_else(|_| unreachable!("builtin attacker names are distinct"));
        }
        registry
    }
}

impl ExplainerRegistry {
    /// The paper's two inspector explainers.
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        for kind in ExplainerKind::ALL {
            registry
                .register(Arc::new(BuiltinExplainer {
                    kind,
                    size: None,
                    name: kind.name().to_string(),
                }))
                .unwrap_or_else(|_| unreachable!("builtin explainer names are distinct"));
        }
        registry
    }
}

/// Process-wide builtin registries, built once (the standalone `merge_shards`
/// resolves against these).
fn builtins() -> &'static (AttackerRegistry, ExplainerRegistry) {
    static BUILTINS: OnceLock<(AttackerRegistry, ExplainerRegistry)> = OnceLock::new();
    BUILTINS.get_or_init(|| (AttackerRegistry::builtin(), ExplainerRegistry::builtin()))
}

/// The builtin attacker registry (shared, process-wide).
pub fn builtin_attackers() -> &'static AttackerRegistry {
    &builtins().0
}

/// The builtin explainer registry (shared, process-wide).
pub fn builtin_explainers() -> &'static ExplainerRegistry {
    &builtins().1
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Custom;

    impl AttackerPlugin for Custom {
        fn name(&self) -> &str {
            "Chaos"
        }

        fn aliases(&self) -> Vec<String> {
            vec!["chaos-monkey".to_string()]
        }

        fn build(&self, prepared: &Prepared) -> Result<Box<dyn TargetedAttack + Sync>> {
            Ok(prepared.attacker(AttackerKind::Rna))
        }
    }

    #[test]
    fn builtin_registries_resolve_every_kind_and_alias() {
        let attackers = AttackerRegistry::builtin();
        for kind in AttackerKind::ALL {
            assert!(attackers.is_known(kind.name()), "{} must resolve", kind.name());
            for alias in kind.aliases() {
                assert_eq!(
                    attackers.resolve(&alias.to_ascii_uppercase()).unwrap().name(),
                    kind.name()
                );
            }
        }
        assert!(!attackers.is_known("nope"));
        let explainers = ExplainerRegistry::builtin();
        for kind in ExplainerKind::ALL {
            for alias in kind.aliases() {
                let plugin = explainers.resolve(alias).unwrap();
                assert_eq!(plugin.name(), kind.name());
                assert_eq!(plugin.prepare_kind(), kind);
            }
        }
        assert!(!explainers.is_known("shap"));
    }

    #[test]
    fn unknown_names_error_with_the_known_list() {
        let err = match AttackerRegistry::builtin().resolve("metattack") {
            Err(e) => e,
            Ok(_) => panic!("metattack must not resolve"),
        };
        let text = err.to_string();
        assert!(text.contains("unknown attacker `metattack`"), "{text}");
        assert!(text.contains("GEAttack"), "{text}");
    }

    #[test]
    fn custom_plugins_register_and_collisions_are_rejected() {
        let mut registry = AttackerRegistry::builtin();
        registry.register(Arc::new(Custom)).unwrap();
        assert!(registry.is_known("CHAOS"));
        assert!(registry.is_known("chaos-monkey"));
        assert_eq!(registry.resolve("chaos").unwrap().name(), "Chaos");

        // Registering the same name (or an alias colliding with a builtin)
        // again must fail loudly.
        let err = registry.register(Arc::new(Custom)).unwrap_err();
        assert!(err.to_string().contains("already registered"), "{err}");

        struct Alias;
        impl AttackerPlugin for Alias {
            fn name(&self) -> &str {
                "Different"
            }
            fn aliases(&self) -> Vec<String> {
                vec!["fga".to_string()]
            }
            fn build(&self, prepared: &Prepared) -> Result<Box<dyn TargetedAttack + Sync>> {
                Ok(prepared.attacker(AttackerKind::Fga))
            }
        }
        let err = registry.register(Arc::new(Alias)).unwrap_err();
        assert!(err.to_string().contains("`fga`"), "{err}");
    }

    #[test]
    fn parameterised_entries_resolve_under_distinct_display_names() {
        let tuned = AttackerRegistry::builtin()
            .resolve("GEAttack: inner_steps=3, lambda=0.5")
            .unwrap();
        assert_eq!(tuned.name(), "GEAttack[lambda=0.5,inner_steps=3]");
        let sized = ExplainerRegistry::builtin().resolve("gnnexplainer:size=40").unwrap();
        assert_eq!(sized.name(), "GNNExplainer[size=40]");
        assert_eq!(sized.explanation_size(), Some(40));
        assert_eq!(sized.prepare_kind(), ExplainerKind::GnnExplainer);
    }

    #[test]
    fn invalid_parameters_are_rejected_with_a_reason() {
        let attackers = AttackerRegistry::builtin();
        for (entry, needle) in [
            ("fga:lambda=1", "takes no parameters"),
            ("geattack:alpha=1", "unknown GEAttack parameter `alpha`"),
            ("geattack:lambda=-1", "must be in [0, 1000000]"),
            ("geattack:lambda=NaN", "must be in"),
            ("geattack:inner_steps=0", "must be in [1, 100]"),
            ("geattack:inner_steps=1.5", "must be in"),
            ("geattack:", "key=value"),
            ("geattack:lambda=1,,", "key=value"),
            ("geattack:lambda=1,lambda=2", "distinct"),
            ("metattack:lambda=1", "unknown attacker `metattack`"),
        ] {
            match attackers.resolve(entry) {
                Ok(p) => panic!("{entry} must not resolve (got {})", p.name()),
                Err(e) => assert!(e.to_string().contains(needle), "{entry}: {e}"),
            }
        }
        let explainers = ExplainerRegistry::builtin();
        for entry in ["gnnexplainer:size=0", "gnnexplainer:size=5000", "pg:depth=2"] {
            assert!(explainers.resolve(entry).is_err(), "{entry}");
        }
    }
}
