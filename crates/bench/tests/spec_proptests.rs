//! Property tests of the network-facing spec parser, `SweepSpec::from_json`
//! (what the serve daemon reads each request line with), and the engine's
//! resolution of parameterised attacker/explainer names. Specs arrive over
//! TCP through `geattack-serve`, so no input may panic; every spec the parser
//! accepts must validate and round-trip to the same content hash.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use geattack_core::engine::Engine;
use geattack_scenarios::SweepSpec;

/// Well-formed inputs the mutations start from: a plain grid and the
/// parameterised cell kinds.
const SEEDS: [&str; 4] = [
    r#"{"name":"quick","families":["ba-shapes","tree-cycles"],"scales":[0.08],"seeds":[0,1],"attackers":["fga-t","rna"],"explainers":["gnnexplainer"],"budgets":["degree"],"victims":4,"quick":true}"#,
    r#"{"name":"fig2_3","families":["citeseer","cora"],"attackers":["nettack"],"victims":{"degrees":[1,2,3],"per_degree":8}}"#,
    r#"{"name":"fig5","families":["cora"],"attackers":["geattack:lambda=20,inner_steps=3"],"explainers":["gnnexplainer:size=40","gnnexplainer:size=10"]}"#,
    r#"{"name":"w","families":["powerlaw-cluster"],"attackers":["geattack:lambda=1"]}"#,
];

/// One of the `|`-separated alternatives (empty ones included).
fn pick<'a>(rng: &mut ChaCha8Rng, alternatives: &'a str) -> &'a str {
    let options: Vec<&str> = alternatives.split('|').collect();
    options[rng.gen_range(0..options.len())]
}

/// Feeds `text` to the parser. Panics propagate and fail the property; an
/// accepted spec must validate, round-trip to its content hash and resolve
/// (or be rejected) without panicking.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(spec) = SweepSpec::from_json(text) {
        prop_assert!(spec.validate().is_ok(), "accepted spec fails validation: {text}");
        let canonical = serde_json::to_string(&spec).expect("specs serialize");
        let back = SweepSpec::from_json(&canonical);
        prop_assert!(back.is_ok(), "canonical form of {text} does not parse: {back:?}");
        prop_assert_eq!(back.expect("checked").content_hash(), spec.content_hash());
        let _ = Engine::new().plan(&spec, None);
    }
    Ok(())
}

/// One random attacker/explainer entry, well-formed or not.
fn entry(rng: &mut ChaCha8Rng) -> String {
    let base = pick(rng, "geattack|GEAttack|fga|gnnexplainer|pg|");
    let pairs: Vec<String> = (0..rng.gen_range(0..4usize))
        .map(|_| {
            let key = pick(rng, "lambda|inner_steps|size|alpha|| lambda ");
            let value = pick(rng, "0|1|20|-1|1e400|nan|3.5|101|1000||=|1e30");
            format!("{key}{}{value}", pick(rng, "=||=="))
        })
        .collect();
    format!("{base}{}{}", pick(rng, "|:|::"), pairs.join(pick(rng, ",|,,")))
}

/// One random `victims` value, object form or not.
fn victims(rng: &mut ChaCha8Rng) -> String {
    let degrees: Vec<&str> = (0..rng.gen_range(0..5usize))
        .map(|_| pick(rng, r#"0|1|3|-4|2.5|"3""#))
        .collect();
    let mut fields = vec![
        format!(r#""degrees": [{}]"#, degrees.join(",")),
        format!(r#""per_degree": {}"#, pick(rng, r#"0|8|-1|1e30|null|"8""#)),
        r#""seed": 1"#.to_string(),
    ];
    fields.truncate(rng.gen_range(0..4usize));
    match rng.gen_range(0..4usize) {
        0 => pick(rng, "0|8|-3|null|[]").to_string(),
        _ => format!("{{{}}}", fields.join(",")),
    }
}

/// Random text over JSON punctuation and the spec's keys and values.
fn token_soup(rng: &mut ChaCha8Rng) -> String {
    let tokens = r#"{|}|[|]|"|:|,|1|-1|2.5e9|null|true|"name"|"families"|"attackers"|"victims"|"degrees"|"per_degree"|"budgets"|"spec"|"shard"|"cora"|"degree=2"|"geattack:lambda=1""#;
    (0..rng.gen_range(0..64usize)).map(|_| pick(rng, tokens)).collect()
}

#[test]
fn the_unmutated_inputs_are_accepted_and_resolve() {
    for text in SEEDS {
        let spec = SweepSpec::from_json(text).expect("seed input parses");
        Engine::new().plan(&spec, None).expect("seed input resolves");
        check(text).expect("seed input round-trips");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_inputs_never_panic(which in 0usize..SEEDS.len(), cut in 0.0f64..1.0) {
        let text = SEEDS[which];
        let at = (cut * text.len() as f64) as usize;
        check(&text[..at])?;
    }

    #[test]
    fn bit_flipped_inputs_never_panic(which in 0usize..SEEDS.len(), seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bytes = SEEDS[which].as_bytes().to_vec();
        for _ in 0..rng.gen_range(0..4usize) + 1 {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8usize);
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn random_token_soup_never_panics(seed in 0u64..u64::MAX) {
        check(&token_soup(&mut ChaCha8Rng::seed_from_u64(seed)))?;
    }

    #[test]
    fn mutated_names_and_victims_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let attackers: Vec<String> = (0..rng.gen_range(0..3usize) + 1).map(|_| format!("{:?}", entry(&mut rng))).collect();
        let explainers: Vec<String> = (0..rng.gen_range(0..2usize) + 1).map(|_| format!("{:?}", entry(&mut rng))).collect();
        let spec = format!(
            r#"{{"name":"m","families":["tree-cycles"],"attackers":[{}],"explainers":[{}],"victims":{}}}"#,
            attackers.join(","),
            explainers.join(","),
            victims(&mut rng)
        );
        check(&spec)?;
        check(&format!(r#"{{"spec":{spec},"shard":"{}"}}"#, pick(&mut rng, "0/1|1/2|2/2|x|")))?;
    }

    #[test]
    fn deep_nesting_is_rejected_without_panicking(depth in 100usize..4000, which in 0usize..3) {
        let (open, close) = [("[", "]"), ("{\"a\":", "}"), ("[{\"victims\":", "}]")][which];
        let nested = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        check(&nested)?;
        check(&format!(r#"{{"name":"n","families":["powerlaw-cluster"],"attackers":["fga"],"victims":{nested}}}"#))?;
        prop_assert!(SweepSpec::from_json(&nested).is_err());
    }
}
