//! The metric schema and the result lines.
//!
//! Every metric the benchmark can emit is declared once in [`END_TO_END`]
//! or [`PER_LAYER`] with its kind and unit; `BENCHMARK.json` names the
//! same metrics and the smoke test holds the two lists equal. A run sets
//! a value for every metric of its mode, then prints two JSON lines: a
//! detailed report (host, checks, fingerprints, each metric with its kind)
//! and, last, the result object `{correct, attempted, failed, metrics}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a metric measures. Wall and modeled time never share a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time, measured.
    Wall,
    /// Time from the device cost model (the paper's axis), not measured.
    Modeled,
    /// An exact count, or a quantity derived from counts.
    Count,
    /// A ratio of two measured quantities.
    Ratio,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Wall => "wall",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
            Kind::Ratio => "ratio",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub kind: Kind,
    pub unit: &'static str,
}

const fn def(name: &'static str, kind: Kind, unit: &'static str) -> Def {
    Def { name, kind, unit }
}

/// End-to-end metrics, printed by every untraced run. A "unit of work"
/// is one warm epoch on the epoch workloads and one request on serve-lj.
pub const END_TO_END: &[Def] = &[
    def("setup_s", Kind::Wall, "s"),
    def("peak_rss_mib", Kind::Count, "MiB"),
    def("latency_ms.p50", Kind::Wall, "ms"),
    def("latency_ms.tail", Kind::Wall, "ms"),
    def("throughput_seeds_per_s", Kind::Wall, "1/s"),
];

/// Kernel families reported by name; any other family lands in
/// `kernels.other.wall_ms`.
pub const KERNEL_FAMILIES: &[&str] = &[
    "fused_extract_select[csc]",
    "collective_sample[csc]",
    "fused_edge_map_reduce[csc]",
    "slice_cols[csc]",
    "broadcast[csc]",
    "vector_op",
];

/// Per-layer metrics, printed by every traced run. Values are per unit of
/// work unless the name says otherwise; a layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    // graphs
    def("graphs.generate_ms", Kind::Wall, "ms"),
    // core compile, serve registration, plan database
    def("core.compile_ms", Kind::Wall, "ms"),
    def("serve.register_ms", Kind::Wall, "ms"),
    def("engine.plandb.hits", Kind::Count, "count"),
    def("engine.plandb.misses", Kind::Count, "count"),
    // core epoch driver / algos walk driver
    def("core.outside_kernels_ms", Kind::Wall, "ms"),
    def("core.windows", Kind::Count, "count"),
    def("core.window_ms.p50", Kind::Wall, "ms"),
    def("core.window_ms.tail", Kind::Wall, "ms"),
    // kernel dispatch and matrix kernels
    def("kernels.launches", Kind::Count, "count"),
    def("kernels.wall_ms", Kind::Wall, "ms"),
    def("kernels.fused_extract_select.csc.wall_ms", Kind::Wall, "ms"),
    def("kernels.collective_sample.csc.wall_ms", Kind::Wall, "ms"),
    def(
        "kernels.fused_edge_map_reduce.csc.wall_ms",
        Kind::Wall,
        "ms",
    ),
    def("kernels.slice_cols.csc.wall_ms", Kind::Wall, "ms"),
    def("kernels.broadcast.csc.wall_ms", Kind::Wall, "ms"),
    def("kernels.vector_op.wall_ms", Kind::Wall, "ms"),
    def("kernels.other.wall_ms", Kind::Wall, "ms"),
    def("kernels.bytes", Kind::Count, "bytes"),
    def("kernels.flops", Kind::Count, "count"),
    // runtime pool and arena
    def("runtime.pool.regions", Kind::Count, "count"),
    def("runtime.pool.busy_ms", Kind::Wall, "ms"),
    def("runtime.pool.idle_ms", Kind::Wall, "ms"),
    def("runtime.pool.efficiency", Kind::Ratio, "ratio"),
    def("runtime.arena.takes", Kind::Count, "count"),
    def("runtime.arena.hit_rate", Kind::Ratio, "ratio"),
    // engine cost model (modeled, never wall)
    def("engine.modeled_us", Kind::Modeled, "us"),
    // serve
    def("serve.batched_fraction", Kind::Ratio, "ratio"),
    def("serve.admission_peak_mib", Kind::Count, "MiB"),
    def("serve.deadline_missed", Kind::Count, "count"),
    def("core.request_solo_ms", Kind::Wall, "ms"),
    def("core.request_pack16_ms", Kind::Wall, "ms"),
    // observability and the benchmark's own tracing
    def("obs.enabled_overhead", Kind::Ratio, "ratio"),
    def("bench.trace_overhead", Kind::Ratio, "ratio"),
    // attribution of one unit of work's wall time (traced phase)
    def("trace.unit_ms", Kind::Wall, "ms"),
    def("trace.kernels.self_ms", Kind::Wall, "ms"),
    def("trace.driver.self_ms", Kind::Wall, "ms"),
    def("trace.serve.submit.self_ms", Kind::Wall, "ms"),
    def("trace.serve.wait.self_ms", Kind::Wall, "ms"),
    def("trace.bench.self_ms", Kind::Wall, "ms"),
    def("trace.unattributed_ms", Kind::Wall, "ms"),
    def("trace.unattributed_share", Kind::Ratio, "ratio"),
];

/// Per-layer metric name of a kernel family (`[`/`]` map to `.`).
pub fn kernel_metric(family: &str) -> String {
    let dotted = family.replace('[', ".").replace(']', "");
    format!("kernels.{dotted}.wall_ms")
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).1
}

/// The quantile `latency_ms.tail` reports when at least ten samples lie
/// above it. Higher quantiles (the ten-sample rule would allow p94 at 175
/// epochs, p99.9 at 10^5 requests) land in the cluster of samples a shared
/// host slowed down in some runs and not in others: over ten sage-pd runs
/// on a 2-core VM the 11th-slowest epoch spread 28% (interquartile range
/// over median) where p90 spread 6.7%.
pub const TAIL_TARGET: f64 = 0.9;

/// The tail quantile of `n` samples: [`TAIL_TARGET`], lowered to the
/// highest quantile with at least ten samples above it. Below 11 samples
/// it is the max.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 10 {
        1.0
    } else {
        ((n - 10) as f64 / n as f64).min(TAIL_TARGET)
    }
}

/// `(q, value)`: the nearest-rank `q` quantile of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> (f64, f64) {
    if xs.is_empty() {
        return (q, 0.0);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (q, sorted[rank - 1])
}

/// The tail of `xs` per [`tail_quantile`]: `(quantile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    percentile(xs, tail_quantile(xs.len()))
}

/// Sample count and fixed quantiles of `xs`, for the detailed report.
pub fn quantiles(xs: &[f64]) -> String {
    let q = |p| percentile(xs, p).1;
    format!(
        "n={} p50={:.4} p90={:.4} p95={:.4} p99={:.4} max={:.4}",
        xs.len(),
        q(0.5),
        q(0.9),
        q(0.95),
        q(0.99),
        q(1.0)
    )
}

/// Host facts every output records.
pub struct Host {
    pub nproc: usize,
    pub threads: usize,
    pub rustc: &'static str,
}

/// Everything one run produced.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub host: Host,
    values: BTreeMap<&'static str, f64>,
    /// Check name → number of items it passed.
    passed: BTreeMap<&'static str, u64>,
    failures: Vec<String>,
    pub fingerprints: Vec<(String, u64)>,
    /// Free-form facts (sample counts, tail quantiles, ...).
    pub notes: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool, host: Host) -> Report {
        Report {
            workload,
            seed,
            traced,
            host,
            values: BTreeMap::new(),
            passed: BTreeMap::new(),
            failures: Vec::new(),
            fingerprints: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Set a declared metric. An undeclared name is a bug in this program.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = lookup(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.
        self.values.insert(d.name, value + 0.0);
    }

    /// Record the outcome of one output check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            *self.passed.entry(name).or_default() += 1;
        } else if self.failures.len() < 20 {
            self.failures.push(format!("{name}: {}", detail()));
        } else {
            self.failures.truncate(20);
            self.failures
                .push(format!("{name}: further failures suppressed"));
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && !self.passed.is_empty()
    }

    /// The metrics this run's mode must print.
    fn defs(&self) -> &'static [Def] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Names of this mode's metrics the run never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs()
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// The detailed report line.
    pub fn detail_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{{\"nproc\":{},\"threads\":{},\"rustc\":{}}}",
            quote(self.workload),
            self.seed,
            self.traced,
            self.host.nproc,
            self.host.threads,
            quote(self.host.rustc)
        );
        let failed_share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = write!(
            s,
            ",\"attempted\":{},\"failed\":{},\"failed_share\":{}",
            self.attempted,
            self.failed,
            num(failed_share)
        );
        s.push_str(",\"checks\":{");
        for (i, (name, n)) in self.passed.iter().enumerate() {
            let _ = write!(s, "{}{}:{}", comma(i), quote(name), n);
        }
        s.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(s, "{}{}", comma(i), quote(f));
        }
        s.push_str("],\"fingerprints\":{");
        for (i, (k, fp)) in self.fingerprints.iter().enumerate() {
            let _ = write!(s, "{}{}:\"{:016x}\"", comma(i), quote(k), fp);
        }
        s.push_str("},\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(s, "{}{}:{}", comma(i), quote(k), quote(v));
        }
        s.push_str("},\"metrics\":{");
        for (i, (name, v)) in self.values.iter().enumerate() {
            let d = lookup(name).expect("set() admits declared names only");
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{},\"kind\":{}}}",
                comma(i),
                quote(name),
                num(*v),
                quote(d.unit),
                quote(d.kind.as_str())
            );
        }
        s.push_str("}}}");
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in self.defs().iter().enumerate() {
            let v = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                comma(i),
                quote(d.name),
                num(v),
                quote(d.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable summary for stderr.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "perfbench {} seed {} ({}): correct={} attempted={} failed={}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.correct(),
            self.attempted,
            self.failed
        );
        for f in &self.failures {
            let _ = writeln!(s, "  CHECK FAILED {f}");
        }
        for d in self.defs() {
            if let Some(v) = self.values.get(d.name) {
                let _ = writeln!(
                    s,
                    "  {:<44} {:>14.4} {:<6} {}",
                    d.name,
                    v,
                    d.unit,
                    d.kind.as_str()
                );
            }
        }
        s
    }
}

fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// A JSON number; non-finite values (never expected) print as `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
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
