//! The three epoch workloads: `sage-pd`, `ladies-pd` and `walk-lj`.
//!
//! Each run sets up (generate the graph, compile) several times and keeps
//! the last sampler, runs a checked epoch, warms up, times whole epochs
//! for the run's seconds, then reruns the checked epoch and requires the
//! same output fingerprint.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gsampler_algos::{drivers, layerwise, nodewise, walks, Hyper};
use gsampler_core::builder::Layer;
use gsampler_core::{compile, Bindings, EpochReport, PlanDb, Sampler, SamplerConfig};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_runtime::{arena_metrics, pool_metrics, ArenaMetrics, PoolMetrics};
use gsampler_testkit::fingerprint::Fingerprint;

use crate::checks::{self, Adjacency, Bound, Delivery};
use crate::report::{self, kernel_metric, median, Report, KERNEL_FAMILIES};
use crate::spans::Spans;
use crate::{Args, Phase, SETUP_REPS};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Sage,
    Ladies,
    Walk,
}

/// Paper hyper-parameters with two layers.
fn hyper() -> Hyper {
    Hyper {
        layers: 2,
        ..Hyper::paper()
    }
}

fn layers(algo: Algo, h: &Hyper) -> Vec<Layer> {
    match algo {
        Algo::Sage => nodewise::graphsage(&h.fanouts),
        Algo::Ladies => layerwise::ladies(h.layer_width, h.layers),
        Algo::Walk => vec![walks::deepwalk_step()],
    }
}

fn bounds(algo: Algo, h: &Hyper) -> Vec<Bound> {
    match algo {
        Algo::Sage => h.fanouts.iter().map(|&k| Bound::PerColumn(k)).collect(),
        Algo::Ladies => vec![Bound::LayerRows(h.layer_width); h.layers],
        Algo::Walk => Vec::new(),
    }
}

/// V100, all optimizations, auto super-batching (256 MiB budget, factor
/// cap 16), and a fresh plan database so every set-up compiles cold.
fn config(seed: u64, h: &Hyper) -> SamplerConfig {
    SamplerConfig {
        seed,
        batch_size: h.batch_size,
        auto_super_batch_budget: Some(256.0 * (1u64 << 20) as f64),
        max_super_batch: 16,
        plan_db: Some(Arc::new(PlanDb::in_memory())),
        ..SamplerConfig::new()
    }
}

/// What the benchmark keeps from one timed epoch.
struct Timed {
    wall_ms: f64,
    kernel_ms: f64,
    launches: u64,
    bytes: u64,
    flops: u64,
    modeled_us: f64,
    families: Vec<(String, f64)>,
    pool: PoolMetrics,
    arena: ArenaMetrics,
    /// Wall time of each window, as seen between consume callbacks.
    windows_ms: Vec<f64>,
}

struct Bench {
    algo: Algo,
    h: Hyper,
    sampler: Sampler,
    seeds: Vec<NodeId>,
    batches: usize,
}

impl Bench {
    /// Run one timed epoch. With `spans`, record the epoch, each window
    /// and each consume callback.
    fn epoch(
        &self,
        epoch: u64,
        report: &mut Report,
        mut spans: Option<&mut Spans>,
    ) -> Option<Timed> {
        let factor = self.sampler.super_batch_factor().max(1);
        let pool0 = pool_metrics();
        let arena0 = arena_metrics();
        let t0 = Instant::now();
        let root = spans
            .as_deref_mut()
            .map(|s| s.open("epoch", epoch, None, t0));
        let mut windows_ms = Vec::new();
        let result = if self.algo == Algo::Walk {
            drivers::run_walk_epoch(&self.sampler, &self.seeds, &self.h, false, epoch)
        } else {
            let mut delivery = Delivery::new(self.batches);
            let mut mark = t0;
            let r =
                self.sampler
                    .run_epoch_with(&self.seeds, &Bindings::new(), epoch, |idx, sample| {
                        let now = Instant::now();
                        if idx % factor == 0 {
                            windows_ms.push((now - mark).as_secs_f64() * 1e3);
                            if let Some(s) = spans.as_deref_mut() {
                                s.record("window", epoch, root, mark, now);
                            }
                        }
                        delivery.deliver(idx);
                        drop(std::hint::black_box(sample));
                        mark = Instant::now();
                        if let Some(s) = spans.as_deref_mut() {
                            s.record("consume", epoch, root, now, mark);
                        }
                    });
            let skipped = r
                .as_ref()
                .map_or(0, |r| r.faults.quarantined_batches as usize);
            if r.is_ok() {
                delivery.finish(report, skipped);
            }
            r
        };
        let t1 = Instant::now();
        if let (Some(s), Some(id)) = (spans, root) {
            s.close(id, t1);
        }
        let pool = pool_metrics().since(&pool0);
        let arena = arena_metrics().since(&arena0);
        report.attempted += self.batches as u64;
        let r: EpochReport = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("epoch {epoch} failed: {e}");
                report.failed += self.batches as u64;
                return None;
            }
        };
        report.failed += r.faults.quarantined_batches;
        if self.algo == Algo::Walk {
            report.check("batches_exactly_once", r.batches == self.batches, || {
                format!("walk epoch ran {} batches of {}", r.batches, self.batches)
            });
        }
        let families = r
            .stats
            .per_kernel
            .iter()
            .map(|(k, a)| (k.clone(), a.wall_time * 1e3))
            .collect();
        Some(Timed {
            wall_ms: (t1 - t0).as_secs_f64() * 1e3,
            kernel_ms: r.stats.total_wall_time * 1e3,
            launches: r.stats.kernel_launches,
            bytes: r.stats.total_bytes,
            flops: r.stats.total_flops,
            modeled_us: r.modeled_time * 1e6,
            families,
            pool,
            arena,
            windows_ms,
        })
    }

    /// Run epoch `epoch` with every output check, returning its
    /// fingerprint (batch order folded in).
    fn checked_epoch(&self, epoch: u64, adj: &Adjacency, report: &mut Report) -> u64 {
        let mut fp = Fingerprint::new();
        if self.algo == Algo::Walk {
            // Mirrors `drivers::run_walk_epoch`'s grouping and RNG streams,
            // which discards the traces it produces.
            let factor = self.sampler.super_batch_factor().max(1);
            let groups: Vec<Vec<NodeId>> = self
                .seeds
                .chunks(self.h.batch_size.max(1))
                .map(<[NodeId]>::to_vec)
                .collect();
            for (exec, window) in groups.chunks(factor).enumerate() {
                let stream = epoch * 65_536 + exec as u64;
                match drivers::run_walk_groups(
                    &self.sampler,
                    window.to_vec(),
                    self.h.walk_length,
                    false,
                    0.0,
                    stream,
                ) {
                    Ok(traces) => {
                        report.check("batches_exactly_once", traces.len() == window.len(), || {
                            format!(
                                "window {exec}: {} traces for {} batches",
                                traces.len(),
                                window.len()
                            )
                        });
                        for t in &traces {
                            checks::walk(report, adj, t, self.h.walk_length);
                            for step in &t.positions {
                                for &n in step {
                                    fp.u64(n as u64);
                                }
                            }
                        }
                    }
                    Err(e) => report.check("checked_epoch_runs", false, || e.to_string()),
                }
            }
        } else {
            let bounds = bounds(self.algo, &self.h);
            let mut delivery = Delivery::new(self.batches);
            let mut samples = Vec::with_capacity(self.batches);
            let r =
                self.sampler
                    .run_epoch_with(&self.seeds, &Bindings::new(), epoch, |idx, sample| {
                        delivery.deliver(idx);
                        samples.push((idx, sample));
                    });
            match r {
                Ok(r) => delivery.finish(report, r.faults.quarantined_batches as usize),
                Err(e) => report.check("checked_epoch_runs", false, || e.to_string()),
            }
            for (idx, sample) in &samples {
                checks::sample(report, adj, sample, &bounds);
                fp.u64(*idx as u64);
                fp.sample(sample);
            }
        }
        fp.finish()
    }
}

/// Set up `SETUP_REPS` times (generate, compile) and keep the last.
fn setup(
    args: &Args,
    algo: Algo,
    kind: DatasetKind,
    report: &mut Report,
    spans: &mut Spans,
) -> Option<Bench> {
    let h = hyper();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        let ds = Dataset::generate(kind, args.scale, args.seed);
        let t1 = Instant::now();
        let graph = Arc::new(ds.graph);
        let sampler = match compile(graph, layers(algo, &h), config(args.seed, &h)) {
            Ok(s) => s,
            Err(e) => {
                report.check("compile", false, || e.to_string());
                return None;
            }
        };
        let t2 = Instant::now();
        spans.record("graphs.generate", rep as u64, None, t0, t1);
        spans.record("core.compile", rep as u64, None, t1, t2);
        setup_s.push((t2 - t0).as_secs_f64());
        generate_ms.push((t1 - t0).as_secs_f64() * 1e3);
        compile_ms.push((t2 - t1).as_secs_f64() * 1e3);
        let batches = ds.frontiers.len().div_ceil(h.batch_size.max(1));
        bench = Some(Bench {
            algo,
            h: h.clone(),
            sampler,
            seeds: ds.frontiers,
            batches,
        });
    }
    let bench = bench?;
    report.set("setup_s", median(&setup_s));
    report.set("graphs.generate_ms", median(&generate_ms));
    report.set("core.compile_ms", median(&compile_ms));
    report.set("serve.register_ms", 0.0);
    let plan = bench.sampler.plan_db_stats();
    report.set("engine.plandb.hits", plan.hits as f64);
    report.set("engine.plandb.misses", plan.misses as f64);
    report.note("super_batch_factor", bench.sampler.super_batch_factor());
    report.note("batches_per_epoch", bench.batches);
    Some(bench)
}

pub fn run(args: &Args, algo: Algo, kind: DatasetKind, report: &mut Report, spans: &mut Spans) {
    let Some(bench) = setup(args, algo, kind, report, spans) else {
        return;
    };

    // Checked epoch, then one warm-up epoch; timed epochs start at 2.
    let adj = Adjacency::of(bench.sampler.graph());
    let fp_before = bench.checked_epoch(0, &adj, report);
    bench.epoch(1, report, None);

    let mut epoch = 2u64;
    let mut by_phase: Vec<(Phase, Vec<Timed>)> = Vec::new();
    for (phase, seconds) in crate::phases(args) {
        if phase == Phase::Obs {
            gsampler_obs::enable();
        }
        let start = Instant::now();
        let mut timed = Vec::new();
        while timed.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let s = if phase == Phase::Traced {
                Some(&mut *spans)
            } else {
                None
            };
            if let Some(t) = bench.epoch(epoch, report, s) {
                timed.push(t);
            }
            epoch += 1;
            if phase == Phase::Obs {
                gsampler_obs::reset();
            }
            if report.failed > 0 && timed.is_empty() {
                break;
            }
        }
        if phase == Phase::Obs {
            gsampler_obs::disable();
        }
        by_phase.push((phase, timed));
    }
    crate::record_peak_rss(report);

    let fp_after = bench.checked_epoch(0, &adj, report);
    report.check("fingerprint_stable", fp_before == fp_after, || {
        format!("epoch 0 fingerprint {fp_before:016x} before timing, {fp_after:016x} after")
    });
    report.fingerprints.push(("epoch0".to_string(), fp_before));

    let walls = |p: Phase| -> Vec<f64> {
        by_phase
            .iter()
            .filter(|(q, _)| *q == p)
            .flat_map(|(_, t)| t.iter().map(|t| t.wall_ms))
            .collect()
    };
    let plain = walls(Phase::Plain);
    let (q, tail) = report::tail(&plain);
    report.set("latency_ms.p50", median(&plain));
    report.set("latency_ms.tail", tail);
    let total_s: f64 = plain.iter().sum::<f64>() / 1e3;
    report.set(
        "throughput_seeds_per_s",
        (bench.seeds.len() * plain.len()) as f64 / total_s.max(1e-9),
    );
    report.note("epochs", plain.len());
    report.note("epoch_ms", format!("{:.1?}", plain));
    report.note("tail_quantile", format!("{q:.4}"));
    report.note("latency_ms", report::quantiles(&plain));

    if args.trace {
        let traced = by_phase
            .iter()
            .find(|(p, _)| *p == Phase::Traced)
            .map_or(&[][..], |(_, t)| t.as_slice());
        set_layers(report, traced, spans);
        let p50 = |p: Phase| median(&walls(p));
        report.set(
            "bench.trace_overhead",
            p50(Phase::Traced) / p50(Phase::Plain),
        );
        report.set("obs.enabled_overhead", p50(Phase::Obs) / p50(Phase::Plain));
    }
}

/// Per-layer metrics from the traced phase's epochs and spans.
fn set_layers(report: &mut Report, traced: &[Timed], spans: &Spans) {
    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Timed) -> f64| traced.iter().map(f).sum::<f64>() / n;
    report.set("kernels.launches", mean(&|t| t.launches as f64));
    report.set("kernels.wall_ms", mean(&|t| t.kernel_ms));
    report.set("kernels.bytes", mean(&|t| t.bytes as f64));
    report.set("kernels.flops", mean(&|t| t.flops as f64));
    report.set("engine.modeled_us", mean(&|t| t.modeled_us));
    for fam in KERNEL_FAMILIES {
        report.set(&kernel_metric(fam), 0.0);
    }
    let mut families: BTreeMap<&str, f64> = BTreeMap::new();
    for t in traced {
        for (k, ms) in &t.families {
            *families.entry(k.as_str()).or_default() += ms / n;
        }
    }
    let mut other = 0.0;
    for (k, ms) in families {
        if KERNEL_FAMILIES.contains(&k) {
            report.set(&kernel_metric(k), ms);
        } else {
            other += ms;
        }
    }
    report.set("kernels.other.wall_ms", other);
    report.set(
        "core.outside_kernels_ms",
        mean(&|t| t.wall_ms - t.kernel_ms),
    );
    let windows: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.windows_ms.iter().copied())
        .collect();
    report.set("core.windows", windows.len() as f64 / n);
    report.set("core.window_ms.p50", median(&windows));
    report.set("core.window_ms.tail", report::tail(&windows).1);
    crate::set_runtime(report, traced.iter().map(|t| (t.pool, t.arena)), n);

    // Attribution: epoch = kernels + driver (window spans minus kernels)
    // + consume callbacks + unattributed (epoch self time outside kernels).
    let total = |name: &str| -> f64 { spans.named(name).map(|s| s.dur_ns() as f64 / 1e6).sum() };
    let epoch_total = total("epoch");
    let windows_total = total("window");
    let epoch_self: f64 = spans.named("epoch").map(|s| s.self_ns() as f64 / 1e6).sum();
    let kernels_total: f64 = traced.iter().map(|t| t.kernel_ms).sum();
    // Kernels run inside window spans when the driver exposes windows; the
    // walk driver does not, so its kernels sit in the epoch's self time.
    let kernels_in_windows = if windows_total > 0.0 {
        kernels_total
    } else {
        0.0
    };
    let unattributed = epoch_self - (kernels_total - kernels_in_windows);
    let m = spans.named("epoch").count().max(1) as f64;
    report.set("trace.unit_ms", epoch_total / m);
    report.set("trace.kernels.self_ms", kernels_total / m);
    report.set(
        "trace.driver.self_ms",
        (windows_total - kernels_in_windows) / m,
    );
    report.set("trace.bench.self_ms", total("consume") / m);
    report.set("trace.unattributed_ms", unattributed / m);
    report.set(
        "trace.unattributed_share",
        unattributed / epoch_total.max(1e-9),
    );
    for name in [
        "trace.serve.submit.self_ms",
        "trace.serve.wait.self_ms",
        "serve.batched_fraction",
        "serve.admission_peak_mib",
        "serve.deadline_missed",
        "core.request_solo_ms",
        "core.request_pack16_ms",
    ] {
        report.set(name, 0.0);
    }
}
