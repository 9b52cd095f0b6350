//! `reproduce` rejects a malformed command line before it runs anything:
//! an unknown figure name, an unknown flag and `--out` without a path
//! each exit 1 with the usage line.

use std::process::Command;

#[test]
fn malformed_command_lines_exit_1_with_usage() {
    for bad in [
        &["fig99"][..],
        &["--bogus"],
        &["fig14", "--check"],
        &["--out"],
        &["fig14", "--out", "--out"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(bad)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("run reproduce");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(
            stderr.contains("error: ") && stderr.contains("usage: reproduce [--out DIR] [NAME...]"),
            "{bad:?}: {stderr}"
        );
    }
}
