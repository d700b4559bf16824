//! What one benchmark run reports: metrics, the failure tally, provenance,
//! and the result file.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::trace::Tracer;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, e.g. `s`, `MB`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric { name: name.to_string(), unit, value }
    }
}

/// Operations attempted and the ones that failed a correctness check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations (cells, searches, runs) attempted.
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

/// Failure messages kept for the report; the count covers the rest.
const MAX_MESSAGES: usize = 20;

impl Checks {
    /// Counts `n` more attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations, keeping `msg` for the report.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Failed / attempted, 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `true` when something ran and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Everything a workload hands back for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// The failure tally.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Extra provenance (sample counts, thread counts, pass walls), each
    /// value already a JSON literal.
    pub notes: Vec<(&'static str, String)>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

/// Every per-layer metric, in report order. A traced run reports each of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spp.generate_s", "s"),
    ("spp.table_s", "s"),
    ("spp.routes", "count"),
    ("explore.build_s", "s"),
    ("explore.build_s.DISAGREE", "s"),
    ("explore.build_s.FIG6", "s"),
    ("explore.build_s.FIG7", "s"),
    ("explore.build_s.FIG8", "s"),
    ("explore.build_s.FIG9", "s"),
    ("explore.build_s.BAD-GADGET", "s"),
    ("explore.build_s.GOOD-GADGET", "s"),
    ("explore.build_s.LINE2", "s"),
    ("explore.states", "count"),
    ("explore.expanded", "count"),
    ("explore.candidates", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.blocks", "count"),
    ("explore.peak_frontier", "count"),
    ("explore.truncated_cells", "count"),
    ("explore.fresh_ratio", "ratio"),
    ("explore.candidates_per_s", "1/s"),
    ("explore.bytes_resident", "bytes"),
    ("reduce.canon_rewrites", "count"),
    ("reduce.absorb_pops", "count"),
    ("reduce.set_collapses", "count"),
    ("reduce.sym_hits", "count"),
    ("explore.analyze_s", "s"),
    ("explore.search_s", "s"),
    ("explore.search_states", "count"),
    ("explore.build_1t_s", "s"),
    ("explore.speedup_2t", "ratio"),
    ("engine.run_s", "s"),
    ("engine.family_s", "s"),
    ("engine.steps", "count"),
    ("engine.steps_per_s", "1/s"),
    ("engine.converged_runs", "count"),
    ("sim.pool_s", "s"),
    ("self.spp_s", "s"),
    ("self.explore_s", "s"),
    ("self.engine_s", "s"),
    ("self.sim_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Fills in the per-layer list from `measured`, with 0 for every layer
/// metric the workload did not produce.
///
/// # Panics
///
/// Panics when `measured` names a metric missing from [`PER_LAYER`].
pub fn per_layer(measured: Vec<(&str, f64)>) -> Vec<Metric> {
    for (name, _) in &measured {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name} is not a per-layer metric");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |m| m.1);
            Metric { name: name.to_string(), unit, value }
        })
        .collect()
}

/// Runs `pass` back to back, at least once, while one more pass of the
/// median length so far would end no more than half a pass past
/// `seconds`. `pass` returns the seconds it took.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut() -> f64) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(pass());
        let typical = crate::stats::median(&walls).expect("one pass ran");
        if t0.elapsed().as_secs_f64() + typical / 2.0 > seconds {
            return;
        }
    }
}

/// Least time spent repeating set-up. A few hundred microseconds of
/// set-up repeated a few dozen times can sit entirely in the first
/// millisecond of the process, while the CPU is still speeding up, and its
/// median then flips between two values from run to run.
const SETUP_MIN_SECS: f64 = 0.25;

/// Runs `setup` at least `min_reps` times and for at least
/// [`SETUP_MIN_SECS`], and returns the last result, the median wall time in
/// seconds, and the number of repetitions.
pub fn setup_median<T>(min_reps: usize, mut setup: impl FnMut() -> T) -> (T, f64, usize) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(setup());
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= min_reps && t0.elapsed().as_secs_f64() >= SETUP_MIN_SECS {
            let reps = walls.len();
            return (out, crate::stats::median(&walls).expect("one set-up ran"), reps);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build a result was measured on.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu)),
        ("build_profile", json_str(profile)),
        ("git_commit", json_str(&git_commit(&repo_root()))),
    ]
}

/// The repository checkout this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with every digit; non-finite values
/// (which no metric should produce) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result the benchmark prints last.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        metrics_json(metrics)
    )
}

/// Overwrites `golden/<name>` in the benchmark's source directory.
///
/// # Panics
///
/// Panics when the file cannot be written: recording was asked for and
/// did not happen.
pub fn write_golden(name: &str, text: String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
    std::fs::write(&path, text).expect("write the golden file");
    eprintln!("wrote {}", path.display());
}

/// Directory the result files and span dumps go to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_is_failed_over_attempted() {
        let mut c = Checks::default();
        assert_eq!(c.error_rate(), 0.0);
        assert!(!c.correct(), "a run that attempted nothing is not correct");
        c.attempt(200);
        assert!(c.correct());
        c.fail(1, "FIG6 R1A flipped".into());
        c.fail(4, "search a3".into());
        assert_eq!(c.error_rate(), 5.0 / 200.0);
        assert!(!c.correct());
        assert_eq!(c.messages.len(), 2);
        for i in 0..100 {
            c.fail(1, format!("m{i}"));
        }
        assert_eq!(c.messages.len(), MAX_MESSAGES);
        assert_eq!(c.failed, 105);
    }

    #[test]
    fn per_layer_lists_every_metric_once_and_defaults_to_zero() {
        let m = per_layer(vec![("explore.build_s", 2.5), ("engine.steps", 7.0)]);
        assert_eq!(m.len(), PER_LAYER.len());
        let names: std::collections::BTreeSet<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("explore.build_s"), 2.5);
        assert_eq!(get("engine.steps"), 7.0);
        assert_eq!(get("sim.pool_s"), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut c = Checks::default();
        c.attempt(3);
        let line = result_line(&c, &[Metric::new("wall_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn git_commit_outside_a_checkout_is_unknown() {
        assert_eq!(git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src")), "unknown");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
