//! The `qpp` CLI rejects flags a subcommand does not read: a typo or a
//! removed option is a usage error (exit 2), never a silently different
//! run.

use std::process::{Command, Output};

fn qpp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qpp")).args(args).output().expect("run qpp")
}

#[test]
fn flags_a_subcommand_does_not_read_are_usage_errors() {
    for (args, flag) in [
        // Removed daemon options.
        (&["serve", "--model", "m.json", "--burst", "8"][..], "--burst"),
        (&["serve", "--model", "m.json", "--fast-path", "0"][..], "--fast-path"),
        // A typo of `--threads`.
        (&["train", "--dataset", "d.json", "--out", "m.json", "--thread", "4"][..], "--thread"),
        // A real flag, on a subcommand that does not read it.
        (&["explain", "--dataset", "d.json", "--query", "0", "--model", "m.json"][..], "--model"),
    ] {
        let out = qpp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{args:?}: {err}");
    }
    // Accepted flags get past parsing: the error is the missing file.
    let out = qpp(&["explain", "--dataset", "no-such-dataset.json", "--query", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-dataset.json") && !err.contains("unknown flag"), "{err}");
}
