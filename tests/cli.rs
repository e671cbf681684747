//! The README's CLI block, run end to end at small sizes: every verb
//! exits 0 and prints its headline, `sim run` is deterministic per
//! seed, and peer counts the study cannot run on are refused with a
//! message instead of a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bartercast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bartercast"))
        .args(args)
        .output()
        .expect("run the bartercast binary")
}

/// Run `args`, require exit 0, and return stdout and stderr.
fn ok(args: &[&str]) -> (String, String) {
    let out = bartercast(args);
    let (stdout, stderr) = (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    );
    assert!(out.status.success(), "{args:?} failed:\n{stderr}");
    (stdout, stderr)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    dir.join(format!("cli-{}-{name}", std::process::id()))
}

#[test]
fn trace_gen_stats_and_sim_run() {
    let path = scratch("community.trace");
    let file = path.to_str().unwrap();
    let (_, stderr) = ok(&[
        "trace", "gen", "--peers", "30", "--swarms", "3", "--days", "1", "--seed", "5", "--out",
        file,
    ]);
    assert!(
        stderr.contains(&format!("wrote {file} (30 peers, 3 swarms,")),
        "{stderr}"
    );

    let (stdout, _) = ok(&["trace", "stats", file]);
    assert!(
        stdout.starts_with(&format!("{file}: 30 peers, 3 swarms, horizon")),
        "{stdout}"
    );

    let run = [
        "sim", "run", "--trace", file, "--policy", "ban=-0.5", "--audit", "--seed", "5",
    ];
    let (first, _) = ok(&run);
    for headline in [
        "final mean system reputation:",
        "audit:",
        "bytes received by uploader slot",
        "meetings,",
    ] {
        assert!(first.contains(headline), "no {headline:?} in:\n{first}");
    }
    assert_eq!(ok(&run).0, first, "sim run is deterministic per seed");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn deploy_and_scale_print_their_headlines() {
    let (stdout, _) = ok(&["deploy", "--peers", "300"]);
    assert!(stdout.starts_with("observer saw "), "{stdout}");
    assert!(stdout.contains("reputation split:"), "{stdout}");
    // latency columns are wall-clock, so only the shape is checked
    let (stdout, _) = ok(&["scale", "--peers", "200"]);
    assert!(stdout.starts_with("200 peers: probe graphs "), "{stdout}");
}

#[test]
fn peer_counts_the_study_cannot_run_are_refused() {
    for args in [
        ["deploy", "--peers", "0"],
        ["deploy", "--peers", "1"],
        ["scale", "--peers", "9"],
    ] {
        let out = bartercast(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}:\n{stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
}

/// A ban threshold outside (−1, 0) is refused: NaN would admit every
/// candidate and empty every optimistic pool, and δ ≤ −1 bans nobody.
#[test]
fn ban_thresholds_outside_the_reputation_range_are_refused() {
    for delta in ["NaN", "-inf", "-1"] {
        let policy = format!("ban={delta}");
        let args = [
            "sim", "run", "--peers", "10", "--days", "1", "--policy", &policy,
        ];
        let out = bartercast(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(
            stderr.starts_with(&format!("error: ban threshold {delta}")),
            "{args:?}:\n{stderr}"
        );
    }
}

/// `--liars F` puts liars in the run, so `--audit` has someone to find;
/// a fraction outside [0, 0.5] is refused like a bad ban threshold.
#[test]
fn sim_run_meets_liars() {
    let (stdout, _) = ok(&[
        "sim", "run", "--audit", "--liars", "0.2", "--peers", "60", "--days", "2", "--seed", "3",
    ]);
    let audit = stdout
        .lines()
        .find(|l| l.starts_with("audit: "))
        .unwrap_or_else(|| panic!("no audit line in:\n{stdout}"));
    let liars: usize = audit
        .split(" of ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no liar count in {audit:?}"));
    assert!(liars > 0, "{audit}");
    for fraction in ["NaN", "inf", "0.6"] {
        let args = [
            "sim", "run", "--peers", "10", "--days", "1", "--liars", fraction,
        ];
        let out = bartercast(&args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
}
