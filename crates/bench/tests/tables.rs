//! Golden test: the `tables` binary regenerates the committed
//! `results/tables.txt` byte for byte, so Tables 1–3 in the results
//! always match the constants and defaults the machines run with.

use std::process::Command;

#[test]
fn tables_output_matches_the_committed_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables")).output().expect("spawn tables");
    assert!(out.status.success(), "tables failed: {out:?}");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/tables.txt");
    let committed = std::fs::read_to_string(committed).expect("read results/tables.txt");
    let stdout = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    assert_eq!(stdout, committed, "regenerate results/tables.txt with `tables`");
}
