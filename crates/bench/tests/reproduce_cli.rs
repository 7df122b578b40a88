//! The `reproduce` command line: a missing or unknown `--table` is refused
//! with the usage line and exit status 2, before any experiment runs.

use std::process::Command;

#[test]
fn unknown_or_missing_table_exits_2_with_the_usage_line() {
    let usage = "usage: reproduce --table <1|2|3|4|iterations|ablation> [--full]";
    for args in [
        &["--table", "5"][..],
        &["--table", "table2"],
        &["--table"],
        &[],
        &["--full"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("the reproduce binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
