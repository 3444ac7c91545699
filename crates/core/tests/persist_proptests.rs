//! Property tests of the experiment-cache decoders against untrusted bytes: a
//! cache entry is read back from disk, so `decode_base` and `decode_pg_stage`
//! must answer any input with `Ok` or `Err` and never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use geattack_core::persist::{decode_base, decode_pg_stage, encode_base, encode_pg_stage};
use geattack_core::{prepare_base, prepare_on, Base, ExplainerKind, PipelineConfig};
use geattack_graph::datasets::{DatasetName, GeneratorConfig};

/// A small PGExplainer-inspected experiment, so the payloads cover every
/// section the encoders write.
fn config() -> PipelineConfig {
    let mut config = PipelineConfig::quick(DatasetName::Cora, 41);
    config.generator = GeneratorConfig::at_scale(0.03, 41);
    config.set_victim_count(2);
    config.explainer = ExplainerKind::PgExplainer;
    config.pgexplainer.epochs = 1;
    config.pgexplainer.training_instances = 2;
    config
}

/// The fixture's base plus its encoded base and PGExplainer-stage payloads.
fn fixture() -> &'static (Base, Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(Base, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = prepare_base(&config()).expect("fixture prepares");
        let pg = prepare_on(&base, config()).pg_explainer.expect("PGExplainer trained");
        let (base_payload, stage_payload) = (encode_base(&base), encode_pg_stage(&pg));
        (base, base_payload, stage_payload)
    })
}

/// Which of the two decoders a payload goes through.
#[derive(Clone, Copy, Debug)]
enum Stage {
    Base,
    PgStage,
}

impl Stage {
    const BOTH: [Stage; 2] = [Stage::Base, Stage::PgStage];

    fn payload(self) -> &'static [u8] {
        match self {
            Stage::Base => &fixture().1,
            Stage::PgStage => &fixture().2,
        }
    }

    /// Decodes `bytes`, turning a panic into a test failure that names the
    /// input.
    fn decodes_without_panicking(self, bytes: &[u8], what: &str) -> bool {
        let result = catch_unwind(AssertUnwindSafe(|| match self {
            Stage::Base => decode_base(bytes).is_ok(),
            Stage::PgStage => decode_pg_stage(bytes, &config().pgexplainer, &fixture().0).is_ok(),
        }));
        result.unwrap_or_else(|_| panic!("{self:?} decoder panicked on {what}"))
    }
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    for stage in Stage::BOTH {
        let payload = stage.payload();
        for len in 0..=payload.len() {
            let decoded = stage.decodes_without_panicking(&payload[..len], &format!("a truncation to {len} bytes"));
            assert_eq!(
                decoded,
                len == payload.len(),
                "{stage:?}: {len} of {} bytes",
                payload.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in collection::vec(0usize..256, 0..256)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        for stage in Stage::BOTH {
            stage.decodes_without_panicking(&bytes, &format!("arbitrary bytes {bytes:?}"));
        }
    }

    #[test]
    fn single_bit_flips_never_panic_the_decoder(position in 0.0f64..1.0, bit in 0usize..8) {
        for stage in Stage::BOTH {
            let mut bytes = stage.payload().to_vec();
            let at = ((position * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[at] ^= 1 << bit;
            stage.decodes_without_panicking(&bytes, &format!("a flip of bit {bit} at byte {at}"));
        }
    }
}
