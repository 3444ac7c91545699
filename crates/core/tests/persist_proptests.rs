//! Property tests of the experiment-cache decoder against untrusted bytes: a
//! cache entry is read back from disk, so `decode_prepared` must answer any
//! input with `Ok` or `Err` and never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use geattack_core::persist::{decode_prepared, encode_prepared};
use geattack_core::{prepare, ExplainerKind, PipelineConfig};
use geattack_graph::datasets::{DatasetName, GeneratorConfig};

/// A small PGExplainer-inspected experiment, so the payload covers every
/// section the encoder writes.
fn config() -> PipelineConfig {
    let mut config = PipelineConfig::quick(DatasetName::Cora, 41);
    config.generator = GeneratorConfig::at_scale(0.03, 41);
    config.set_victim_count(2);
    config.explainer = ExplainerKind::PgExplainer;
    config.pgexplainer.epochs = 1;
    config.pgexplainer.training_instances = 2;
    config
}

fn payload() -> &'static [u8] {
    static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
    PAYLOAD.get_or_init(|| encode_prepared(&prepare(config()).expect("fixture prepares")))
}

/// Decodes `bytes`, turning a panic into a test failure that names the input.
fn decodes_without_panicking(bytes: &[u8], what: &str) -> bool {
    let result = catch_unwind(AssertUnwindSafe(|| decode_prepared(bytes, config()).is_ok()));
    result.unwrap_or_else(|_| panic!("decoder panicked on {what}"))
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    let payload = payload();
    for len in 0..=payload.len() {
        let decoded = decodes_without_panicking(&payload[..len], &format!("a truncation to {len} bytes"));
        assert_eq!(decoded, len == payload.len(), "{len} of {} bytes", payload.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in collection::vec(0usize..256, 0..256)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decodes_without_panicking(&bytes, &format!("arbitrary bytes {bytes:?}"));
    }

    #[test]
    fn single_bit_flips_never_panic_the_decoder(position in 0.0f64..1.0, bit in 0usize..8) {
        let mut bytes = payload().to_vec();
        let at = ((position * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        decodes_without_panicking(&bytes, &format!("a flip of bit {bit} at byte {at}"));
    }
}
