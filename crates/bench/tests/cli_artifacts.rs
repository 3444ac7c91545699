//! `geattack-sweep` at the process boundary: an artifact write that fails
//! must fail the run instead of claiming the artifact, and a flag it does not
//! know exits 2 before anything runs.

use std::process::Command;

#[test]
fn sweep_fails_when_its_report_cannot_be_written() {
    let dir = std::env::temp_dir().join(format!("geattack-cli-{}-unwritable", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("spec.json"), include_str!("../../../tests/specs/lambda.json")).expect("spec written");
    // A regular file where the `results/` directory should go.
    std::fs::write(dir.join("results"), "not a directory").expect("blocker written");
    let out = Command::new(env!("CARGO_BIN_EXE_geattack-sweep"))
        .args(["spec.json", "--serial"])
        .current_dir(&dir)
        .output()
        .expect("geattack-sweep runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failed write must fail the run:\n{stderr}");
    assert!(
        !stdout.contains("JSON written to"),
        "no artifact may be claimed:\n{stdout}"
    );
    assert!(
        stderr.contains("cannot write results/"),
        "the error names the path:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_flags_are_unknown_options() {
    for flag in ["--quick", "--full"] {
        let out = Command::new(env!("CARGO_BIN_EXE_geattack-sweep"))
            .args(["--list-families", flag])
            .output()
            .expect("geattack-sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}:\n{stderr}");
        assert!(stderr.contains(&format!("unknown option: {flag}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} must not print Table 3");
    }
}
