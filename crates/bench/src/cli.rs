//! The shared command-line pieces of the engine clients.
//!
//! `geattack-sweep` takes one spec path plus the flag set below
//! ([`Options::parse_sweep`]); the parsing, the usage message and the
//! flag-to-spec overrides ([`Options::apply_to`]) live here. `geattack-merge`
//! and `geattack-render` take only report paths ([`paths_only`]). Every
//! binary writes its JSON artifacts through [`write_json`].

use std::io;
use std::path::PathBuf;

use geattack_core::sweep::Shard;
use geattack_scenarios::SweepSpec;

/// Command-line options of the sweep runner.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Replace the seeds axis with `seed..seed+N` (`--runs N`).
    pub runs: Option<usize>,
    /// Number of victims per cell (overrides the spec's count when set).
    pub victims: Option<usize>,
    /// Dataset scale override.
    pub scale: Option<f64>,
    /// Base seed.
    pub seed: u64,
    /// Force the single-threaded engine path (`--serial`).
    pub serial: bool,
    /// Run only one shard of the sweep grid (`--shard I/N`, zero-based).
    pub shard: Option<Shard>,
    /// Memoize prepared experiments under this directory (`--cache-dir DIR`).
    pub cache_dir: Option<String>,
    /// Prune the cache directory to this many MiB (`--cache-budget-mb N`).
    pub cache_budget_mb: Option<u64>,
    /// Write an NDJSON span trace to this path (`--telemetry PATH`).
    pub telemetry: Option<String>,
    /// Print the enumerated cell plan instead of running (`--dry-run`).
    pub dry_run: bool,
    /// Print every family's Table 3 statistics and exit (`--list-families`).
    pub list_families: bool,
}

/// The result of parsing a command line that may carry positional arguments.
#[derive(Clone, Debug)]
pub struct ParsedArgs {
    /// The shared flag set.
    pub options: Options,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

const FLAG_USAGE: &str = "[--runs N] [--victims N] [--scale F] [--seed N] [--serial] \
[--shard I/N] [--cache-dir DIR] [--cache-budget-mb N] [--telemetry PATH] [--dry-run] [--list-families]";

impl Options {
    /// Parses `std::env::args()`: the flag set plus positional arguments (the
    /// spec path); `positional_usage` is appended to the usage message.
    /// Unknown flags abort with a usage message so typos do not silently run
    /// the wrong experiment.
    pub fn parse_sweep(positional_usage: &str) -> ParsedArgs {
        parse(std::env::args().skip(1), positional_usage)
    }

    /// Applies the flags to a parsed spec, each replacing one axis
    /// explicitly: `--scale F` the scales axis, `--victims N` the per-cell
    /// victim count, `--runs N` the seeds axis with `0..N` and `--seed N`
    /// offsets every seed.
    pub fn apply_to(&self, spec: &mut SweepSpec) {
        if let Some(scale) = self.scale {
            spec.scales = vec![scale];
        }
        if let Some(victims) = self.victims {
            spec.victims = victims;
        }
        if let Some(runs) = self.runs {
            spec.seeds = (0..runs.max(1) as u64).collect();
        }
        if self.seed != 0 {
            spec.seeds = spec.seeds.iter().map(|&s| s + self.seed).collect();
        }
    }
}

/// Writes a JSON artifact under `results/` (created on demand) and returns its
/// path. Callers must fail loudly on error: an artifact that was not written
/// must never be reported as written.
pub fn write_json(name: &str, json: &str) -> io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// [`write_json`] for binaries: on failure prints the error and exits with
/// status 1, so a run never claims an artifact it did not write.
pub fn write_json_or_exit(name: &str, json: &str) -> PathBuf {
    write_json(name, json).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn parse(args: impl Iterator<Item = String>, positional_usage: &str) -> ParsedArgs {
    let usage = format!("usage: {FLAG_USAGE} {positional_usage}");
    let fail = |message: &str| -> ! {
        eprintln!("{message}");
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let mut options = Options::default();
    let mut positional = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => options.runs = Some(parse_next(&mut args, "--runs")),
            "--victims" => options.victims = Some(parse_next(&mut args, "--victims")),
            "--scale" => options.scale = Some(parse_next(&mut args, "--scale")),
            "--seed" => options.seed = parse_next(&mut args, "--seed"),
            "--serial" => options.serial = true,
            "--shard" => {
                let value: String = parse_next(&mut args, "--shard");
                match Shard::parse(&value) {
                    Ok(shard) => options.shard = Some(shard),
                    Err(e) => fail(&e.to_string()),
                }
            }
            "--cache-dir" => {
                let dir: String = parse_next(&mut args, "--cache-dir");
                // Any string parses, so a forgotten value would silently
                // swallow the next flag (`--cache-dir --dry-run` caching into
                // ./--dry-run); prefix paths with ./ to use a literal dash.
                if dir.starts_with('-') {
                    fail(&format!("--cache-dir expects a directory path, got flag-like `{dir}`"));
                }
                options.cache_dir = Some(dir);
            }
            "--cache-budget-mb" => options.cache_budget_mb = Some(parse_next(&mut args, "--cache-budget-mb")),
            "--telemetry" => {
                let path: String = parse_next(&mut args, "--telemetry");
                if path.starts_with('-') {
                    fail(&format!("--telemetry expects a file path, got flag-like `{path}`"));
                }
                options.telemetry = Some(path);
            }
            "--dry-run" => options.dry_run = true,
            "--list-families" => options.list_families = true,
            "--help" | "-h" => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => fail(&format!("unknown option: {other}")),
            other => positional.push(other.to_string()),
        }
    }
    ParsedArgs { options, positional }
}

/// Parses a command line consisting only of positional path arguments (the
/// merge and render binaries' report lists): no flags apply, so anything starting
/// with `-` other than `-h`/`--help` aborts.
pub fn paths_only(positional_usage: &str) -> Vec<String> {
    let usage = format!("usage: {positional_usage}");
    let mut paths = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option: {other}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
            other => paths.push(other.to_string()),
        }
    }
    paths
}

fn parse_next<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> std::vec::IntoIter<String> {
        list.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    fn spec() -> SweepSpec {
        SweepSpec::new("cli", vec!["cora".to_string()], vec!["fga".to_string()])
    }

    #[test]
    fn defaults_leave_the_spec_unchanged() {
        let options = Options::default();
        let mut overridden = spec();
        options.apply_to(&mut overridden);
        assert_eq!(overridden, spec());
    }

    #[test]
    fn overrides_flow_into_the_sweep_spec() {
        let options = Options {
            scale: Some(0.05),
            victims: Some(3),
            runs: Some(3),
            seed: 7,
            ..Default::default()
        };
        let mut overridden = spec();
        options.apply_to(&mut overridden);
        assert_eq!(overridden.victims, 3);
        assert_eq!(overridden.scales, vec![0.05]);
        assert_eq!(overridden.seeds, vec![7, 8, 9]);
    }

    #[test]
    fn flags_parse_into_options() {
        let parsed = parse(
            args(&["--seed", "9", "--scale", "0.2", "spec.json", "--serial", "--runs", "3"]),
            "SPEC",
        );
        assert_eq!(parsed.options.seed, 9);
        assert_eq!(parsed.options.scale, Some(0.2));
        assert!(parsed.options.serial);
        assert_eq!(parsed.options.runs, Some(3));
        assert_eq!(parsed.positional, vec!["spec.json".to_string()]);
    }

    #[test]
    fn sweep_flags_parse_when_allowed() {
        let parsed = parse(
            args(&[
                "--shard",
                "1/3",
                "--cache-dir",
                "/tmp/geattack-cache",
                "--dry-run",
                "--list-families",
                "spec.json",
            ]),
            "SPEC",
        );
        assert_eq!(parsed.options.shard, Some(Shard { index: 1, count: 3 }));
        assert_eq!(parsed.options.cache_dir.as_deref(), Some("/tmp/geattack-cache"));
        assert!(parsed.options.dry_run);
        assert!(parsed.options.list_families);
        // Defaults: no distribution behavior unless asked for.
        let plain = parse(args(&[]), "").options;
        assert_eq!(plain.shard, None);
        assert_eq!(plain.cache_dir, None);
        assert!(!plain.dry_run && !plain.list_families);
    }
}
