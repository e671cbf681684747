//! What produced a results file: commit, seed, machine, toolchain,
//! build profile and repetition count. `run.sh` passes the commit and
//! the `rustc -V` line in the environment (the driver's checkout is
//! not a git repository, so the commit may read `unknown`).

use crate::metrics::Report;

/// The fingerprint every results and trace file carries.
pub struct Fingerprint {
    commit: String,
    seed: u64,
    nproc: usize,
    cpu_model: String,
    rustc: String,
    profile: &'static str,
    repetitions: usize,
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// JSON string body: escape what a CPU model or version line could
/// plausibly hold.
fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

impl Fingerprint {
    /// Gather the fingerprint of this run.
    pub fn collect(seed: u64, report: &Report) -> Self {
        Fingerprint {
            commit: env_or_unknown("BENCH_GIT_COMMIT"),
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env_or_unknown("BENCH_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            repetitions: report.reps,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"git_commit\": \"{}\", \"seed\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \
             \"rustc\": \"{}\", \"build_profile\": \"{}\", \"repetitions\": {}}}",
            escape(&self.commit),
            self.seed,
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.rustc),
            self.profile,
            self.repetitions
        )
    }
}
