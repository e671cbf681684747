//! `bartercast` — command-line front end to the reproduction.
//!
//! ```text
//! bartercast trace gen   [--peers N] [--swarms M] [--days D] [--seed S] [--out FILE]
//! bartercast trace stats <FILE>
//! bartercast trace import <TRACKER_LOG> [--out FILE]
//! bartercast sim run     [--trace FILE] [--policy none|rank|ban=-0.5] [--seed S]
//!                        [--days D] [--audit] [--liars F]
//! bartercast deploy      [--peers N] [--seed S]
//! bartercast scale       [--peers N] [--seed S]
//! ```
//!
//! Every subcommand is deterministic per seed. `trace gen` emits the
//! text interchange format (`bartercast-trace::format`); `sim run`
//! accepts either such a file or generates a synthetic trace.

#![forbid(unsafe_code)]

use bartercast::bt::ChokeCounts;
use bartercast::core::policy::ReputationPolicy;
use bartercast::deploy::{Community, CommunityConfig, Observer, ObserverConfig};
use bartercast::sim::scale::{run_scale, ScaleConfig};
use bartercast::sim::{AdversaryModel, SimConfig, Simulation, SlotKind};
use bartercast::trace::format::{parse_trace, write_trace};
use bartercast::trace::{import_tracker_log, ImportConfig};
use bartercast::trace::{SynthConfig, Trace, TraceBuilder};
use bartercast::util::plot::{line_plot, Series};
use bartercast::util::stats::Running;
use bartercast::util::units::Seconds;
use std::process::ExitCode;

/// Minimal `--key value` / `--flag` argument scanner.
struct Args {
    raw: Vec<String>,
}

impl Args {
    fn new(raw: Vec<String>) -> Self {
        Args { raw }
    }

    fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: '{v}'")),
        }
    }

    /// First token that is neither a `--key` nor the value of one.
    /// `--audit` is the only value-less flag.
    fn positional(&self) -> Option<&str> {
        let mut skip_next = false;
        for a in &self.raw {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") {
                skip_next = a != "--audit";
                continue;
            }
            return Some(a.as_str());
        }
        None
    }
}

/// Parse `none`, `rank`, or `ban=-0.5` into a policy. A ban threshold
/// must lie in (−1, 0): reputations lie in (−1, 1), so δ ≤ −1 bans
/// nobody, and a NaN threshold would admit everyone.
fn parse_policy(text: &str) -> Result<ReputationPolicy, String> {
    match text {
        "none" => Ok(ReputationPolicy::None),
        "rank" => Ok(ReputationPolicy::Rank),
        other => {
            if let Some(delta) = other.strip_prefix("ban=") {
                let delta: f64 = delta
                    .parse()
                    .map_err(|_| format!("invalid ban threshold '{delta}'"))?;
                if !(delta > -1.0 && delta < 0.0) {
                    return Err(format!("ban threshold {delta} is not in (-1, 0)"));
                }
                Ok(ReputationPolicy::Ban { delta })
            } else {
                Err(format!(
                    "unknown policy '{other}' (expected none | rank | ban=<delta>)"
                ))
            }
        }
    }
}

/// Parse `--liars F`: the fraction F of peers that gossip the §5.4
/// lie. Liars are drawn from the freeriders, who are half the peers,
/// so F must lie in [0, 0.5]; NaN and ±inf are refused.
fn parse_liars(text: &str) -> Result<AdversaryModel, String> {
    let fraction: f64 = text
        .parse()
        .map_err(|_| format!("invalid liar fraction '{text}'"))?;
    if !(0.0..=0.5).contains(&fraction) {
        return Err(format!("liar fraction {fraction} is not in [0, 0.5]"));
    }
    Ok(AdversaryModel::default_lie(fraction))
}

fn usage() -> &'static str {
    "bartercast — BarterCast (IPDPS 2009) reproduction\n\
     \n\
     USAGE:\n\
       bartercast trace gen   [--peers N] [--swarms M] [--days D] [--seed S] [--out FILE]\n\
       bartercast trace stats <FILE>\n\
       bartercast trace import <TRACKER_LOG> [--out FILE]\n\
       bartercast sim run     [--trace FILE] [--policy none|rank|ban=-0.5] [--seed S]\n\
                              [--days D] [--peers N] [--audit] [--liars F]\n\
       bartercast deploy      [--peers N] [--seed S]\n\
       bartercast scale       [--peers N] [--seed S]\n\
     \n\
     The paper's figures are regenerated by the dedicated binaries:\n\
       cargo run -p bartercast-experiments --release --bin fig1|fig2|fig3|fig4|scale\n"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let mut it = argv.iter();
    let cmd = it.next().map(|s| s.as_str()).unwrap_or("");
    let sub = argv.get(1).map(|s| s.as_str()).unwrap_or("");
    let rest = Args::new(argv.iter().skip(1).cloned().collect());
    match (cmd, sub) {
        ("trace", "gen") => trace_gen(&Args::new(argv[2..].to_vec())),
        ("trace", "stats") => trace_stats(&Args::new(argv[2..].to_vec())),
        ("trace", "import") => trace_import(&Args::new(argv[2..].to_vec())),
        ("sim", "run") => sim_run(&Args::new(argv[2..].to_vec())),
        ("deploy", _) => deploy(&rest),
        ("scale", _) => scale(&rest),
        ("help", _) | ("--help", _) | ("", _) => {
            println!("{}", usage());
            Ok(())
        }
        _ => Err(format!("unknown command '{cmd} {sub}'")),
    }
}

fn synth_trace(args: &Args) -> Result<Trace, String> {
    let peers: usize = args.parse("--peers", 100)?;
    let swarms: usize = args.parse("--swarms", 10)?;
    let days: u64 = args.parse("--days", 7)?;
    let seed: u64 = args.parse("--seed", 42)?;
    if peers < 2 || swarms < 1 || days < 1 {
        return Err("need at least 2 peers, 1 swarm and 1 day".into());
    }
    Ok(TraceBuilder::new(SynthConfig {
        peers,
        swarms,
        horizon: Seconds::from_days(days),
        ..Default::default()
    })
    .build(seed))
}

fn trace_gen(args: &Args) -> Result<(), String> {
    let trace = synth_trace(args)?;
    let text = write_trace(&trace);
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "wrote {} ({} peers, {} swarms, {} lines)",
                path,
                trace.peer_count(),
                trace.swarm_count(),
                text.lines().count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn trace_import(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .ok_or("trace import needs a tracker log path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let trace = import_tracker_log(&text, &ImportConfig::default())
        .map_err(|e| format!("import {path}: {e}"))?;
    let out = write_trace(&trace);
    match args.value("--out") {
        Some(dest) => {
            std::fs::write(dest, &out).map_err(|e| format!("write {dest}: {e}"))?;
            eprintln!(
                "reconstructed {} peers / {} swarms -> {}",
                trace.peer_count(),
                trace.swarm_count(),
                dest
            );
        }
        None => print!("{out}"),
    }
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let trace = parse_trace(&text).map_err(|e| format!("parse {path}: {e}"))?;
    trace
        .validate()
        .map_err(|e| format!("invalid trace: {e}"))?;
    Ok(trace)
}

fn trace_stats(args: &Args) -> Result<(), String> {
    let path = args.positional().ok_or("trace stats needs a file path")?;
    let trace = load_trace(path)?;
    println!(
        "{}: {} peers, {} swarms, horizon {}",
        path,
        trace.peer_count(),
        trace.swarm_count(),
        trace.horizon
    );
    let mut uptime = Running::new();
    let mut requests = Running::new();
    for p in &trace.peers {
        uptime.push(p.uptime().as_hours());
        requests.push(p.requests.len() as f64);
    }
    println!(
        "uptime/peer: mean {:.1} h; requests/peer: mean {:.1}",
        uptime.mean(),
        requests.mean()
    );
    for s in &trace.swarms {
        println!(
            "  {}: {:8.0} MB, {} pieces, seeder {}",
            s.swarm,
            s.file_size.as_mb(),
            s.piece_count(),
            s.initial_seeder
        );
    }
    Ok(())
}

fn sim_run(args: &Args) -> Result<(), String> {
    let trace = match args.value("--trace") {
        Some(path) => load_trace(path)?,
        None => synth_trace(args)?,
    };
    let seed: u64 = args.parse("--seed", 42)?;
    let policy = parse_policy(args.value("--policy").unwrap_or("none"))?;
    let adversary = match args.value("--liars") {
        Some(text) => parse_liars(text)?,
        None => AdversaryModel::None,
    };
    let config = SimConfig {
        seed,
        policy,
        adversary,
        audit: args.flag("--audit"),
        ..Default::default()
    };
    eprintln!(
        "simulating {} peers / {} swarms / {:.1} days under policy {} ...",
        trace.peer_count(),
        trace.swarm_count(),
        trace.horizon.as_days(),
        policy.label()
    );
    let report = Simulation::new(trace, config).run();
    println!(
        "{}",
        line_plot(
            &format!("avg download speed (KBps), policy = {}", policy.label()),
            &[
                Series::new("sharers", report.speed.sharers.means()),
                Series::new("freeriders", report.speed.freeriders.means()),
            ],
            72,
            16,
        )
    );
    let (s_rep, f_rep) = report.mean_final_reputation();
    println!("final mean system reputation: sharers {s_rep:+.3}, freeriders {f_rep:+.3}");
    if let Some(r) = report.freerider_speed_ratio() {
        println!("freerider/sharer overall speed ratio: {r:.3}");
    }
    if let Some(r) = report.final_speed_ratio() {
        println!("freerider/sharer end-of-run speed ratio: {r:.3}");
    }
    if let Some(a) = &report.audit {
        println!(
            "audit: {} suspects of {} liars (precision {:.2}, recall {:.2})",
            a.suspects.len(),
            a.liar_count,
            a.precision,
            a.recall
        );
    }
    let kinds: Vec<&str> = SlotKind::ALL.iter().map(|k| k.label()).collect();
    println!("bytes received by uploader slot ({}):", kinds.join(" / "));
    for (group, freerider) in [("sharers", false), ("freeriders", true)] {
        let shares: Vec<String> = report
            .slots
            .shares(freerider)
            .iter()
            .map(|share| format!("{:.1}%", share * 100.0))
            .collect();
        println!("  {group:<10} {}", shares.join(" / "));
    }
    println!(
        "{} meetings, {} messages, {} pieces",
        report.meetings, report.messages_delivered, report.pieces_transferred
    );
    for s in &report.swarms {
        println!(
            "  swarm {}: {} completions, mean {:.1} h, peak {} members",
            s.swarm, s.completions, s.mean_completion_hours, s.peak_members
        );
    }
    println!("choke contention ({}):", ChokeCounts::LABELS.join(" / "));
    for (role, counts) in [
        ("leechers", report.contention.leecher),
        ("seeders", report.contention.seeder),
    ] {
        let counts: Vec<String> = counts.values().iter().map(u64::to_string).collect();
        println!("  {role:<10} {}", counts.join(" / "));
    }
    Ok(())
}

fn deploy(args: &Args) -> Result<(), String> {
    let peers: usize = args.parse("--peers", 5000)?;
    let seed: u64 = args.parse("--seed", 42)?;
    if peers < 2 {
        return Err("deploy needs at least 2 peers".into());
    }
    let community = Community::generate(
        &CommunityConfig {
            peers,
            ..Default::default()
        },
        seed,
    );
    let report = Observer::new(community.len()).observe(
        &community,
        &ObserverConfig::default(),
        seed ^ 0xDEAD_BEEF,
    );
    let (neg, zero, pos) = report.reputation_split(0.01);
    println!(
        "observer saw {} peers, logged {} messages",
        report.peers_in_graph, report.messages_logged
    );
    println!(
        "reputation split: {:.0}% negative / {:.0}% ~zero / {:.0}% positive",
        neg * 100.0,
        zero * 100.0,
        pos * 100.0
    );
    Ok(())
}

fn scale(args: &Args) -> Result<(), String> {
    let peers: usize = args.parse("--peers", 10_000)?;
    let seed: u64 = args.parse("--seed", 42)?;
    if peers < 10 {
        return Err("scale needs at least 10 peers".into());
    }
    let report = run_scale(&ScaleConfig {
        peers,
        probes: 100.min(peers / 10).max(10),
        seed,
        ..Default::default()
    });
    println!(
        "{} peers: probe graphs {:.0} edges, query p50 {:.0} us / p95 {:.0} us, \
         discrimination {:.3}",
        report.peers,
        report.mean_graph_edges,
        report.query_us_p50,
        report.query_us_p95,
        report.pairwise_accuracy
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn arg_scanner() {
        let a = args(&["--peers", "50", "--audit", "file.trace"]);
        assert_eq!(a.parse::<usize>("--peers", 10).unwrap(), 50);
        assert_eq!(a.parse::<usize>("--swarms", 10).unwrap(), 10);
        assert!(a.flag("--audit"));
        assert!(!a.flag("--out"));
        assert_eq!(a.positional(), Some("file.trace"));
    }

    #[test]
    fn arg_scanner_rejects_garbage() {
        let a = args(&["--peers", "many"]);
        assert!(a.parse::<usize>("--peers", 10).is_err());
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy("none").unwrap(), ReputationPolicy::None);
        assert_eq!(parse_policy("rank").unwrap(), ReputationPolicy::Rank);
        assert_eq!(
            parse_policy("ban=-0.5").unwrap(),
            ReputationPolicy::Ban { delta: -0.5 }
        );
        assert!(parse_policy("ban=0.5").is_err());
        for outside in ["NaN", "-inf", "inf", "-1", "-1.5", "0", "-0"] {
            let text = format!("ban={outside}");
            assert!(parse_policy(&text).is_err(), "{text} accepted");
        }
        assert!(parse_policy("ban=-0.999").is_ok());
        assert!(parse_policy("ban=x").is_err());
        assert!(parse_policy("tit-for-tat").is_err());
    }

    #[test]
    fn liar_parsing() {
        assert_eq!(
            parse_liars("0.2").unwrap(),
            AdversaryModel::default_lie(0.2)
        );
        for inside in ["0", "0.5"] {
            assert!(parse_liars(inside).is_ok(), "{inside} refused");
        }
        for outside in ["NaN", "inf", "-inf", "-0.1", "0.51", "1", "x"] {
            assert!(parse_liars(outside).is_err(), "{outside} accepted");
        }
    }

    #[test]
    fn synth_trace_respects_args() {
        let t = synth_trace(&args(&["--peers", "20", "--swarms", "2", "--days", "1"])).unwrap();
        assert_eq!(t.peer_count(), 20);
        assert_eq!(t.swarm_count(), 2);
        assert_eq!(t.horizon, Seconds::from_days(1));
    }

    #[test]
    fn synth_trace_rejects_degenerate() {
        assert!(synth_trace(&args(&["--peers", "1"])).is_err());
        assert!(synth_trace(&args(&["--days", "0"])).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(vec!["frobnicate".into()]).is_err());
    }

    #[test]
    fn help_is_ok() {
        run(vec!["help".into()]).unwrap();
        run(Vec::new()).unwrap();
    }
}
