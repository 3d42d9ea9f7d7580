//! End-to-end tests of the actual `parmatch` binary.

use std::process::Command;

fn parmatch(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_parmatch"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn match_verify_succeeds() {
    let out = parmatch(&[
        "match", "--algo", "match4", "--n", "2000", "--seed", "3", "--verify",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("verified: matching ✓ maximal ✓"),
        "{stdout}"
    );
}

#[test]
fn gen_pipes_into_match() {
    let gen = parmatch(&["gen", "--kind", "bitrev", "--n", "256"]);
    assert!(gen.status.success());
    let dir = std::env::temp_dir().join("parmatch-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bitrev.txt");
    std::fs::write(&path, &gen.stdout).unwrap();
    let out = parmatch(&[
        "match",
        "--algo",
        "match2",
        "--input",
        path.to_str().unwrap(),
        "--verify",
    ]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_usage_exits_2_with_usage() {
    let out = parmatch(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn help_exits_0() {
    let out = parmatch(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("COMMANDS"));
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parmatch-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn malformed_list_file_exits_2_with_parse_error() {
    let path = write_temp("malformed.txt", "this is not a list file\n");
    let out = parmatch(&["verify", "--input", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error:") && stderr.contains("missing 'parmatch-list v1' header"),
        "{stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_range_index_exits_2_with_invalid_error() {
    // node 0 points to node 9 of a 2-node list
    let path = write_temp("oob.txt", "parmatch-list v1\nn=2 head=0\n9\n-\n");
    let out = parmatch(&["verify", "--input", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("index out of range"), "{stderr}");
    // the same file must fail identically through `match --input`
    let out = parmatch(&[
        "match",
        "--algo",
        "match2",
        "--input",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(&path).ok();
}

#[test]
fn untrusted_header_sizes_exit_2_with_typed_errors() {
    // The header's n is checked against the NodeId range and never used
    // to size an allocation before the entries are read.
    for (n, want) in [
        ("18446744073709551615", "exceeds the 4294967295 nodes"),
        ("5000000000", "exceeds the 4294967295 nodes"),
        ("4000000000", "2 entries for a 4000000000-node list"),
    ] {
        let path = write_temp(
            &format!("huge-n-{n}.txt"),
            &format!("parmatch-list v1\nn={n} head=0\n1\n-\n"),
        );
        let out = parmatch(&["match", "--input", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "n={n}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error:") && stderr.contains(want),
            "n={n}: {stderr}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn verify_faults_flag_runs_the_matrix() {
    let out = parmatch(&["verify", "--faults", "--n", "32", "--trials", "1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fault self-check"), "{stdout}");
    assert!(stdout.contains("verified:"), "{stdout}");
}

#[test]
fn missing_required_arg_exits_2_with_stderr() {
    let out = parmatch(&["verify"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");

    let out = parmatch(&["match", "--algo", "match1", "--n", "ten"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn steps_reports_counts() {
    let out = parmatch(&["steps", "--algo", "match4", "--n", "512", "--i", "2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("steps=") && stdout.contains("work="),
        "{stdout}"
    );
}

#[test]
fn match2_zero_rounds_exits_2_with_typed_error() {
    let out = parmatch(&["match", "--algo", "match2", "--n", "100", "--rounds", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error: match2: rounds must be ≥ 1"),
        "{stderr}"
    );
}

#[test]
fn match4_zero_levels_exits_2_with_typed_error() {
    let out = parmatch(&["match", "--algo", "match4", "--n", "100", "--i", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error: match4: levels must be ≥ 1"),
        "{stderr}"
    );
}

#[test]
fn serve_reports_rejected_knobs_as_typed_errors() {
    let path = write_temp(
        "zero-knobs.jobs",
        "match2 --n 100 --rounds 0\nmatch4 --n 100 --i 0\nmatch4 --n 100\n",
    );
    let out = parmatch(&["serve", "--jobs", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("match2 n=100: error: runner error: match2: rounds must be ≥ 1"),
        "{stdout}"
    );
    assert!(
        stdout.contains("match4 n=100: error: runner error: match4: levels must be ≥ 1"),
        "{stdout}"
    );
    assert!(stdout.contains("(0 batched, 2 failed)"), "{stdout}");
    assert!(!stdout.contains("panicked"), "{stdout}");
    std::fs::remove_file(&path).ok();
}
