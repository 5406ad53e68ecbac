//! The `serve` binary's flag parsing: a misspelled flag, a flag without
//! a value, or a flag whose value is another flag exits 2 before the
//! subcommand does anything.

use std::path::PathBuf;
use std::process::Command;

fn out_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cord-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("capture.stream")
}

/// Runs `serve capture --app fft --out OUT` plus `extra`; asserts exit
/// status 2 and that nothing was written.
fn assert_rejected(tag: &str, extra: &[&str]) {
    let out = out_file(tag);
    let status = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["capture", "--app", "fft", "--out"])
        .arg(&out)
        .args(extra)
        .stderr(std::process::Stdio::null())
        .status()
        .expect("serve runs");
    assert_eq!(status.code(), Some(2), "serve capture ... {extra:?}");
    assert!(!out.exists(), "{extra:?} must not write a capture");
    let _ = std::fs::remove_dir_all(out.parent().expect("temp dir"));
}

#[test]
fn a_misspelled_flag_exits_2_without_output() {
    assert_rejected("misspelled", &["--sed", "3"]);
}

#[test]
fn a_flag_without_a_value_exits_2_without_output() {
    assert_rejected("novalue", &["--seed"]);
    assert_rejected("flagvalue", &["--config", "--seed", "3"]);
    assert_rejected("positional", &["stray"]);
}
