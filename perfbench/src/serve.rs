//! The `serve-lj` workload: an `EpochServer` over LiveJournal with 16
//! GraphSAGE tenants, driven as a closed loop by one client thread.
//!
//! Trainers wait for each batch, so the load is a closed loop with one
//! request in flight per tenant. The tenants step in lockstep, like
//! synchronous data-parallel trainers: the client submits one request per
//! tenant as a burst, waits on each ticket in submit order, and submits the
//! next round when all have replied. All tenants share one pack key, so
//! replies arrive in submit order and each wait times its request exactly.
//!
//! Resubmitting each tenant as soon as its reply arrived was tried first:
//! how many requests the scheduler found queued then depended on thread
//! timing, and over ten runs on a 2-core host throughput spread 12.6% and
//! p99 19% (interquartile range over median), too wide to gate on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gsampler_core::{Bindings, Graph, PlanDb};
use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_matrix::NodeId;
use gsampler_runtime::{arena_metrics, pool_metrics, ArenaMetrics, PoolMetrics, RngPool};
use gsampler_serve::{EpochServer, ServeConfig, Session, TenantSpec, Ticket};
use gsampler_testkit::fingerprint::Fingerprint;
use rand::Rng;

use crate::checks::{self, Adjacency, Bound};
use crate::report::{self, kernel_metric, median, Report, KERNEL_FAMILIES};
use crate::spans::Spans;
use crate::{Args, Phase, SETUP_REPS};

const TENANTS: usize = 16;
const FANOUTS: [usize; 2] = [10, 5];
const BATCH: usize = 64;
/// Generous: a healthy run misses none, but the deadline plane is armed.
const DEADLINE: Duration = Duration::from_secs(10);
/// Each tenant's first reply and every this-many-th reply are kept and
/// checked after timing (prime, so the checked replies rotate over the
/// tenants), up to `MAX_KEPT`; the cap keeps memory independent of how
/// many requests a run completes.
const CHECK_EVERY: u64 = 61;
const MAX_KEPT: usize = 256;
/// Untimed closed-loop warm-up before the phases.
const WARMUP: Duration = Duration::from_millis(300);

fn serve_config() -> ServeConfig {
    ServeConfig {
        batching: true,
        max_pack: TENANTS,
        default_deadline: Some(DEADLINE),
        ..ServeConfig::default()
    }
}

fn spec(seed: u64, tenant: usize) -> TenantSpec {
    let mut spec = TenantSpec::graphsage(
        format!("tenant-{tenant:02}"),
        &FANOUTS,
        seed.wrapping_mul(1_000_003).wrapping_add(tenant as u64),
    );
    spec.batch_size = BATCH;
    spec
}

/// Request seed picks: a pure function of (workload seed, tenant, request).
struct Picks {
    pool: RngPool,
    nodes: usize,
}

impl Picks {
    fn seeds(&self, tenant: usize, request: u64) -> Vec<NodeId> {
        let mut rng = self.pool.subpool(tenant as u64).stream(request);
        (0..BATCH)
            .map(|_| rng.gen_range(0..self.nodes as NodeId))
            .collect()
    }
}

struct InFlight {
    tenant: usize,
    request: u64,
    start: Instant,
    ticket: Ticket,
    span: Option<usize>,
}

/// A reply kept for the after-timing checks.
struct Kept {
    tenant: usize,
    request: u64,
    sample: gsampler_core::GraphSample,
}

struct Client<'a> {
    server: &'a EpochServer,
    names: Vec<String>,
    picks: Picks,
    next: Vec<u64>,
    replies: u64,
    kept: Vec<Kept>,
    /// Client-thread time in `submit`, in `wait`, and in the loop's own
    /// bookkeeping (seed picks, reply handling), for the current phase.
    submit_ms: f64,
    wait_ms: f64,
    bench_ms: f64,
}

/// One closed-loop phase's measurements.
struct PhaseResult {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    submit_ms: f64,
    wait_ms: f64,
    bench_ms: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

impl Client<'_> {
    /// Submit one request per tenant as a single burst, so the server
    /// packs them together deterministically.
    fn submit_round(
        &mut self,
        report: &mut Report,
        spans: &mut Option<&mut Spans>,
    ) -> Vec<InFlight> {
        let picked = Instant::now();
        let requests: Vec<(String, Vec<NodeId>, u64)> = (0..TENANTS)
            .map(|t| {
                let request = self.next[t];
                self.next[t] += 1;
                (self.names[t].clone(), self.picks.seeds(t, request), request)
            })
            .collect();
        let ids: Vec<u64> = requests.iter().map(|r| r.2).collect();
        report.attempted += TENANTS as u64;
        let start = Instant::now();
        let tickets = self.server.submit_burst(requests);
        let end = Instant::now();
        self.bench_ms += ms(picked, start);
        self.submit_ms += ms(start, end);
        let mut round = Vec::with_capacity(TENANTS);
        for (tenant, (ticket, request)) in tickets.into_iter().zip(ids).enumerate() {
            let span = spans.as_deref_mut().map(|s| {
                let unit = request * TENANTS as u64 + tenant as u64;
                let id = s.open("request", unit, None, start);
                s.record("submit", unit, Some(id), start, end);
                id
            });
            match ticket {
                Ok(ticket) => round.push(InFlight {
                    tenant,
                    request,
                    start,
                    ticket,
                    span,
                }),
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    report.failed += 1;
                }
            }
        }
        round
    }

    /// Run rounds for `seconds`: submit a round, wait on each of its
    /// tickets in submit order, repeat.
    fn run(
        &mut self,
        seconds: f64,
        report: &mut Report,
        mut spans: Option<&mut Spans>,
        obs: bool,
    ) -> PhaseResult {
        (self.submit_ms, self.wait_ms, self.bench_ms) = (0.0, 0.0, 0.0);
        let mut latencies_ms = Vec::new();
        let begin = Instant::now();
        while latencies_ms.is_empty() || begin.elapsed().as_secs_f64() < seconds {
            let round = self.submit_round(report, &mut spans);
            if round.is_empty() {
                break;
            }
            for f in round {
                let wait_start = Instant::now();
                let reply = f.ticket.wait();
                let done = Instant::now();
                self.wait_ms += ms(wait_start, done);
                if let (Some(s), Some(id)) = (spans.as_deref_mut(), f.span) {
                    let unit = s.get(id).unit;
                    s.record("wait", unit, Some(id), wait_start, done);
                    s.close(id, done);
                }
                let handle = Instant::now();
                match reply {
                    Ok(sample) => {
                        latencies_ms.push(ms(f.start, done));
                        self.replies += 1;
                        let sampled =
                            self.replies.is_multiple_of(CHECK_EVERY) && self.kept.len() < MAX_KEPT;
                        if f.request == 0 || sampled {
                            self.kept.push(Kept {
                                tenant: f.tenant,
                                request: f.request,
                                sample,
                            });
                        }
                    }
                    Err(e) => {
                        eprintln!("request failed: {e}");
                        report.failed += 1;
                    }
                }
                if obs && self.replies.is_multiple_of(1024) {
                    gsampler_obs::reset();
                }
                self.bench_ms += ms(handle, Instant::now());
            }
        }
        PhaseResult {
            latencies_ms,
            wall_s: begin.elapsed().as_secs_f64(),
            submit_ms: self.submit_ms,
            wait_ms: self.wait_ms,
            bench_ms: self.bench_ms,
        }
    }
}

/// Set up `SETUP_REPS` times (generate, start a server, register the
/// tenants) and keep the last graph and server.
fn setup(args: &Args, report: &mut Report, spans: &mut Spans) -> Option<(Arc<Graph>, EpochServer)> {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut register_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let ds = Dataset::generate(DatasetKind::LiveJournal, args.scale, args.seed);
        let t1 = Instant::now();
        let graph = Arc::new(ds.graph);
        let server = EpochServer::start(Arc::clone(&graph), serve_config());
        for t in 0..TENANTS {
            if let Err(e) = server.register(spec(args.seed, t)) {
                report.check("register", false, || e.to_string());
                return None;
            }
        }
        let t2 = Instant::now();
        spans.record("graphs.generate", rep as u64, None, t0, t1);
        spans.record("serve.register", rep as u64, None, t1, t2);
        setup_s.push((t2 - t0).as_secs_f64());
        generate_ms.push((t1 - t0).as_secs_f64() * 1e3);
        register_ms.push((t2 - t1).as_secs_f64() * 1e3);
        kept = Some((graph, server));
    }
    let (graph, server) = kept?;
    report.set("setup_s", median(&setup_s));
    report.set("graphs.generate_ms", median(&generate_ms));
    report.set("serve.register_ms", median(&register_ms));
    let plan = server.snapshot().plan_db;
    report.set("engine.plandb.hits", plan.hits as f64);
    report.set("engine.plandb.misses", plan.misses as f64);
    Some((graph, server))
}

/// One measured phase: its loop results and the server's packed and
/// completed counts over it.
struct Measured {
    phase: Phase,
    result: PhaseResult,
    batched: u64,
    completed: u64,
    pool: PoolMetrics,
    arena: ArenaMetrics,
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) {
    let Some((graph, server)) = setup(args, report, spans) else {
        return;
    };
    let mut client = Client {
        server: &server,
        names: (0..TENANTS).map(|t| spec(args.seed, t).name).collect(),
        picks: Picks {
            pool: RngPool::new(args.seed ^ 0x5eed_10ad),
            nodes: graph.num_nodes(),
        },
        next: vec![0; TENANTS],
        replies: 0,
        kept: Vec::new(),
        submit_ms: 0.0,
        wait_ms: 0.0,
        bench_ms: 0.0,
    };
    client.run(WARMUP.as_secs_f64(), report, None, false);

    let mut measured = Vec::new();
    for (phase, seconds) in crate::phases(args) {
        let before = server.snapshot().metrics;
        let (pool0, arena0) = (pool_metrics(), arena_metrics());
        if phase == Phase::Obs {
            gsampler_obs::enable();
        }
        let s = if phase == Phase::Traced {
            Some(&mut *spans)
        } else {
            None
        };
        let result = client.run(seconds, report, s, phase == Phase::Obs);
        if phase == Phase::Obs {
            gsampler_obs::disable();
            gsampler_obs::reset();
        }
        let after = server.snapshot().metrics;
        measured.push(Measured {
            phase,
            result,
            batched: after.batched() - before.batched(),
            completed: after.completed() - before.completed(),
            pool: pool_metrics().since(&pool0),
            arena: arena_metrics().since(&arena0),
        });
    }
    crate::record_peak_rss(report);
    let snapshot = server.snapshot();
    server.shutdown();

    let (sessions, compile_ms) = solo_sessions(&graph, args.seed);
    check_replies(report, &graph, &sessions, &client);

    let phase = |p: Phase| measured.iter().find(|m| m.phase == p);
    let plain = &phase(Phase::Plain)
        .expect("every run has a plain phase")
        .result;
    let (q, tail) = report::tail(&plain.latencies_ms);
    let requests = plain.latencies_ms.len() as f64;
    report.set("latency_ms.p50", median(&plain.latencies_ms));
    report.set("latency_ms.tail", tail);
    report.set(
        "throughput_seeds_per_s",
        requests * BATCH as f64 / plain.wall_s.max(1e-9),
    );
    report.note("requests", requests);
    report.note("req_per_s", requests / plain.wall_s.max(1e-9));
    report.note("tail_quantile", format!("{q:.4}"));
    report.note("latency_ms", report::quantiles(&plain.latencies_ms));

    if !args.trace {
        return;
    }
    let traced = phase(Phase::Traced).expect("traced runs have a traced phase");
    report.set("core.compile_ms", compile_ms);
    for name in [
        "core.outside_kernels_ms",
        "core.windows",
        "core.window_ms.p50",
        "core.window_ms.tail",
        "kernels.launches",
        "kernels.wall_ms",
        "kernels.other.wall_ms",
        "kernels.bytes",
        "kernels.flops",
        "trace.kernels.self_ms",
        "trace.driver.self_ms",
    ] {
        report.set(name, 0.0);
    }
    for fam in KERNEL_FAMILIES {
        report.set(&kernel_metric(fam), 0.0);
    }
    let n = traced.result.latencies_ms.len().max(1) as f64;
    crate::set_runtime(report, std::iter::once((traced.pool, traced.arena)), n);
    report.set(
        "serve.batched_fraction",
        traced.batched as f64 / traced.completed.max(1) as f64,
    );
    report.set(
        "serve.admission_peak_mib",
        snapshot.peak_bytes as f64 / (1u64 << 20) as f64,
    );
    report.set(
        "serve.deadline_missed",
        snapshot.metrics.deadline_missed() as f64,
    );

    // Attribution of the client thread's wall time per request.
    let t = &traced.result;
    let wall_ms = t.wall_s * 1e3;
    let unattributed = wall_ms - t.submit_ms - t.wait_ms - t.bench_ms;
    report.set("trace.unit_ms", wall_ms / n);
    report.set("trace.serve.submit.self_ms", t.submit_ms / n);
    report.set("trace.serve.wait.self_ms", t.wait_ms / n);
    report.set("trace.bench.self_ms", t.bench_ms / n);
    report.set("trace.unattributed_ms", unattributed / n);
    report.set("trace.unattributed_share", unattributed / wall_ms.max(1e-9));

    let p50 = |p: Phase| phase(p).map_or(0.0, |m| median(&m.result.latencies_ms));
    report.set(
        "bench.trace_overhead",
        p50(Phase::Traced) / p50(Phase::Plain),
    );
    report.set("obs.enabled_overhead", p50(Phase::Obs) / p50(Phase::Plain));
    probes(report, &sessions[0], &client.picks);
}

/// A sampler per tenant compiled from the same spec as the server's
/// sessions, and the wall time of the first (cold) compile in ms.
fn solo_sessions(graph: &Arc<Graph>, seed: u64) -> (Vec<Session>, f64) {
    let db = Arc::new(PlanDb::in_memory());
    let mut cold_ms = 0.0;
    let sessions = (0..TENANTS)
        .map(|t| {
            let start = Instant::now();
            let session = Session::compile(
                Arc::clone(graph),
                Arc::clone(&db),
                spec(seed, t),
                &serve_config(),
            )
            .expect("a spec the server registered compiles");
            if t == 0 {
                cold_ms = start.elapsed().as_secs_f64() * 1e3;
            }
            session
        })
        .collect();
    (sessions, cold_ms)
}

/// Every kept reply equals its tenant's solo run and passes the GraphSAGE
/// output checks; every tenant's first reply is fingerprinted.
fn check_replies(report: &mut Report, graph: &Graph, sessions: &[Session], client: &Client) {
    let adj = Adjacency::of(graph);
    let bounds: Vec<Bound> = FANOUTS.iter().map(|&k| Bound::PerColumn(k)).collect();
    for k in &client.kept {
        let seeds = client.picks.seeds(k.tenant, k.request);
        let solo =
            sessions[k.tenant]
                .sampler
                .sample_batch_seeded(&seeds, &Bindings::new(), k.request);
        let same = solo
            .as_ref()
            .is_ok_and(|s| checks::same_output(s, &k.sample));
        report.check("served_equals_solo", same, || {
            format!(
                "tenant {} request {} differs from its solo run",
                k.tenant, k.request
            )
        });
        checks::sample(report, &adj, &k.sample, &bounds);
    }
    report.note("checked_replies", client.kept.len());
    // The first replies are the same requests in every run, whatever the
    // run's speed.
    let mut first: Vec<&Kept> = client.kept.iter().filter(|k| k.request == 0).collect();
    first.sort_by_key(|k| k.tenant);
    report.check("first_replies_kept", first.len() == TENANTS, || {
        format!("{} of {TENANTS} first replies arrived", first.len())
    });
    let mut fp = Fingerprint::new();
    for k in first {
        fp.u64(k.tenant as u64);
        fp.sample(&k.sample);
    }
    report
        .fingerprints
        .push(("first_replies".to_string(), fp.finish()));
}

/// Compute probes on one tenant's spec: a request alone, and sixteen
/// packed the way the server packs a round.
fn probes(report: &mut Report, probe: &Session, picks: &Picks) {
    const SOLO: u64 = 64;
    const PACKS: u64 = 16;
    let mut solo_ms = Vec::new();
    probe.sampler.reset_stats();
    for r in 0..SOLO {
        let seeds = picks.seeds(0, r);
        let t = Instant::now();
        let _ = std::hint::black_box(probe.sampler.sample_batch_seeded(
            &seeds,
            &Bindings::new(),
            r,
        ));
        solo_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set(
        "engine.modeled_us",
        probe.sampler.device().stats().total_time * 1e6 / SOLO as f64,
    );
    let mut pack_ms = Vec::new();
    for round in 0..PACKS {
        let ids: Vec<u64> = (0..TENANTS as u64)
            .map(|r| round * TENANTS as u64 + r)
            .collect();
        let groups: Vec<Vec<NodeId>> = ids.iter().map(|&r| picks.seeds(0, r)).collect();
        let mut rngs: Vec<_> = ids.iter().map(|&r| probe.pool.stream(r)).collect();
        let t = Instant::now();
        let _ = std::hint::black_box(probe.sampler.sample_groups_isolated(
            groups,
            &Bindings::new(),
            &mut rngs,
        ));
        pack_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set("core.request_solo_ms", median(&solo_ms));
    report.set("core.request_pack16_ms", median(&pack_ms));
}
