//! Pieces the workloads share: the paper's Table 2 and Eq. 6 recomputed
//! here, traced calls into the engine and the verifier, and the per-layer
//! metrics read off the recorder.

use holmes::engine::{
    build_iteration, execute, DpSyncStrategy, EngineConfig, ExecutionSpec, IterationReport,
};
use holmes::parallel::ParallelPlan;
use holmes::topology::{presets, Topology};
use holmes::{FrameworkKind, HolmesConfig};

use crate::trace::Tracer;
use crate::Metrics;

/// Paper Table 2 per parameter group: (layers, hidden size, global batch).
/// Sequence length 2048 and vocabulary 51200 hold for every group.
const TABLE2: [(u32, u32, u32); 8] = [
    (30, 3072, 768),
    (30, 3072, 1536),
    (36, 4096, 1536),
    (36, 4096, 2688),
    (36, 4096, 1536),
    (36, 4096, 2688),
    (48, 8192, 1536),
    (48, 8192, 1536),
];
const SEQ: f64 = 2048.0;
const VOCAB: f64 = 51200.0;

pub fn layers(pg: u8) -> u32 {
    TABLE2[usize::from(pg) - 1].0
}

pub fn global_batch(pg: u8) -> f64 {
    f64::from(TABLE2[usize::from(pg) - 1].2)
}

/// Paper Eq. 6: `F = 96·B·s·l·h²·(1 + s/(6h) + V/(16·l·h))`.
pub fn eq6_flops(pg: u8) -> f64 {
    let (l, h, b) = TABLE2[usize::from(pg) - 1];
    let (l, h, b) = (f64::from(l), f64::from(h), f64::from(b));
    96.0 * b * SEQ * l * h * h * (1.0 + SEQ / (6.0 * h) + VOCAB / (16.0 * l * h))
}

/// The (feature flags, fallback sync) pair `run_framework` documents for a
/// framework: ZeRO-1 frameworks and Holmes shard the optimizer when overlap
/// is off, plain Megatron uses DDP all-reduce.
pub fn framework_entry(kind: FrameworkKind) -> (HolmesConfig, DpSyncStrategy) {
    let fallback = if kind == FrameworkKind::Holmes || kind.uses_zero1() {
        DpSyncStrategy::DistributedOptimizer
    } else {
        DpSyncStrategy::AllReduce
    };
    (kind.as_holmes_flags(), fallback)
}

/// The cell every workload shares: Table 5 and Fig. 6's setting, PG3 on
/// four InfiniBand plus four RoCE nodes. Sections a workload does not
/// exercise itself run on it.
pub fn probe_topology(tr: &mut Tracer) -> Topology {
    tr.span("topology.build", |_| presets::hybrid_split(4, 4))
}

/// `verify_plan` with a span; true when it reports no error.
pub fn verify_plan(topo: &Topology, plan: &ParallelPlan, pg: u8, tr: &mut Tracer) -> bool {
    tr.span("analysis.verify_plan", |_| {
        holmes_analysis::verify_plan(topo, plan, layers(pg), None)
    })
    .is_empty()
}

/// `verify_collective` over every collective of a spec, on the schedule
/// the executor generates for it; true when no defect is reported.
pub fn verify_spec(topo: &Topology, spec: &ExecutionSpec, tr: &mut Tracer) -> bool {
    let (ok, transfers) = tr.span("analysis.verify_collective", |_| {
        let cluster_of = |r| topo.coord(r).map_or(0, |c| c.cluster.0);
        let mut ok = true;
        let mut transfers = 0usize;
        for c in &spec.collectives {
            let bytes = c.bytes / u64::from(c.channels.max(1));
            let schedule = c.kind.schedule(&c.devices, bytes, cluster_of);
            transfers += schedule
                .rounds()
                .iter()
                .map(|r| r.transfers().len())
                .sum::<usize>();
            ok &= holmes_analysis::verify_collective(topo, c.kind, &c.devices, bytes, &schedule)
                .is_empty();
        }
        (ok, transfers)
    });
    tr.count("analysis.transfers_verified", transfers as f64);
    ok
}

/// `build_iteration` with a span and the spec's size counted.
pub fn build(
    topo: &Topology,
    plan: &ParallelPlan,
    job: &holmes::model::TrainJob,
    cfg: &EngineConfig,
    tr: &mut Tracer,
) -> Option<ExecutionSpec> {
    let spec = tr
        .span("engine.build", |_| build_iteration(topo, plan, job, cfg))
        .ok()?;
    let ops: usize = spec.programs.iter().map(|(_, p)| p.len()).sum();
    tr.count("engine.spec_ops", ops as f64);
    tr.count("engine.spec_collectives", spec.collectives.len() as f64);
    Some(spec)
}

/// `execute` with a span and the simulator's work counted.
pub fn run_spec(topo: &Topology, spec: ExecutionSpec, tr: &mut Tracer) -> Option<IterationReport> {
    let report = tr.span("engine.execute", |_| execute(topo, spec)).ok()?;
    tr.count("netsim.events", report.events as f64);
    tr.count("netsim.flows", report.flows as f64);
    Some(report)
}

/// Per-layer metrics read off the recorder's spans and counters.
pub fn layer_metrics(tr: &Tracer, m: &mut Metrics) {
    // Mean span durations.
    for (metric, span, scale, unit) in [
        ("topology.build_ms", "topology.build", 1e3, "ms"),
        ("core.plan_for_ms", "core.plan_for", 1e3, "ms"),
        ("core.estimate_us", "core.estimate_iteration", 1e6, "us"),
        (
            "core.autotune_enumerate_ms",
            "core.autotune_enumerate",
            1e3,
            "ms",
        ),
        ("core.resilient_ms", "core.run_resilient", 1e3, "ms"),
        ("parallel.delta_ms", "parallel.replan_for_delta", 1e3, "ms"),
        ("engine.build_ms", "engine.build", 1e3, "ms"),
        ("engine.execute_ms", "engine.execute", 1e3, "ms"),
        ("analysis.verify_plan_us", "analysis.verify_plan", 1e6, "us"),
        (
            "analysis.verify_collective_ms",
            "analysis.verify_collective",
            1e3,
            "ms",
        ),
        ("analysis.progress_ms", "analysis.progress", 1e3, "ms"),
    ] {
        m.put(metric, tr.mean_s(span) * scale, unit);
    }
    m.put(
        "core.autotune_finalists_ms",
        (tr.mean_s("core.autotune") - tr.mean_s("core.autotune_enumerate")) * 1e3,
        "ms",
    );
    // Calls and work counts of the counted passes.
    m.put("core.plan_for_calls", tr.calls("core.plan_for"), "count");
    m.put(
        "core.estimate_calls",
        tr.calls("core.estimate_iteration"),
        "count",
    );
    for name in [
        "core.autotune_candidates",
        "parallel.synth_expanded",
        "parallel.synth_pruned",
        "parallel.delta_moves",
        "engine.flow_retries",
        "engine.tcp_fallback_flows",
        "engine.fault_windows",
        "engine.restarts",
        "analysis.transfers_verified",
        "analysis.progress_scenarios",
    ] {
        m.put(name, tr.counter(name), "count");
    }
    // Work per call, and time per unit of work over the same calls.
    for (metric, counter, span) in [
        ("engine.spec_ops", "engine.spec_ops", "engine.build"),
        (
            "engine.spec_collectives",
            "engine.spec_collectives",
            "engine.build",
        ),
        ("netsim.events", "netsim.events", "engine.execute"),
        ("netsim.flows", "netsim.flows", "engine.execute"),
    ] {
        m.put(
            metric,
            tr.counter(counter) / tr.calls(span).max(1.0),
            "count",
        );
    }
    for (metric, span, counter, scale, unit) in [
        (
            "netsim.ns_per_event",
            "engine.execute",
            "netsim.events",
            1e9,
            "ns",
        ),
        (
            "netsim.ns_per_flow",
            "engine.execute",
            "netsim.flows",
            1e9,
            "ns",
        ),
        (
            "parallel.synth_us_per_expansion",
            "parallel.synth",
            "parallel.synth_expanded",
            1e6,
            "us",
        ),
    ] {
        m.put(
            metric,
            tr.counted_s(span) / tr.counter(counter).max(1.0) * scale,
            unit,
        );
    }
}
