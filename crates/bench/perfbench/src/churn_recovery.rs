//! `churn_recovery`: one `run_resilient_with_strategy` per operation, over
//! every fault preset, two data-parallel sync strategies and three fleets.
//! Same executor and netsim as `paper_grid`, on their fault paths.

use std::collections::BTreeSet;

use holmes::engine::{DegradedCondition, DpSyncStrategy};
use holmes::model::{CommVolumes, ParameterGroup, BYTES_PER_PARAM_FULL};
use holmes::netsim::ChurnKind;
use holmes::parallel::{
    replan_for_delta_with, GuidedPlanner, MigrationCosts, ParallelPlan, PlacementWorkload,
    TopologyDelta,
};
use holmes::topology::{presets, Topology};
use holmes::{
    placement_stage_flops, plan_for, run_resilient_with_strategy, verify_preset_progress,
    FaultPreset, HolmesConfig, PlanRequest, ReliabilityModel, ResilienceReport,
};
use holmes_analysis::EventSpace;

use crate::sections::{self, global_batch};
use crate::stats::mix;
use crate::trace::Tracer;
use crate::{Metrics, Workload};

struct Fleet {
    topo: Topology,
    pg: u8,
    /// The plan `run_resilient` executes, re-derived here to find the
    /// data-parallel replicas a lost node belongs to.
    plan: ParallelPlan,
    /// The ring-based sync the full Holmes configuration runs.
    ring: DpSyncStrategy,
}

struct Cell {
    fleet: usize,
    preset: FaultPreset,
    strategy: DpSyncStrategy,
    seed: u64,
}

pub struct Digest {
    log: String,
    samples: f64,
    seconds: f64,
}

pub struct ChurnRecovery {
    fleets: Vec<Fleet>,
    cells: Vec<Cell>,
}

/// Seed stream for `preempt_storm`. Its accounting fault fails the operation
/// on every seed, so its fault times are kept apart from `--seed`: the
/// share of failed operations is then the same in every run.
const PREEMPT_SEED: u64 = 0x5EED;

impl ChurnRecovery {
    pub fn new(seed: u64, tr: &mut Tracer) -> Self {
        let builders: [(fn() -> Topology, u8); 3] = [
            (|| presets::hybrid_split(4, 4), 3),
            (presets::gen_split_2c, 1),
            (presets::table4_4r_4ib_4ib, 6),
        ];
        let fleets = builders
            .iter()
            .map(|&(build, pg)| (tr.span("topology.build", |_| build()), pg))
            .collect();
        Self::with_fleets(fleets, seed)
    }

    /// Every preset and strategy on the cell all workloads share, with a
    /// fixed seed.
    pub fn probe(tr: &mut Tracer) -> Self {
        Self::with_fleets(vec![(sections::probe_topology(tr), 3)], 1)
    }

    fn with_fleets(fleets: Vec<(Topology, u8)>, seed: u64) -> Self {
        let fleets: Vec<Fleet> = fleets
            .into_iter()
            .map(|(topo, pg)| {
                let (plan, engine_cfg) = plan_for(
                    &topo,
                    &PlanRequest::parameter_group(pg),
                    &HolmesConfig::full(),
                    DpSyncStrategy::DistributedOptimizer,
                )
                .expect("churn fleet plans");
                Fleet {
                    topo,
                    pg,
                    plan,
                    ring: engine_cfg.dp_sync,
                }
            })
            .collect();
        let mut cells = Vec::new();
        for (fleet, f) in fleets.iter().enumerate() {
            let ring = f.ring;
            for preset in FaultPreset::ALL {
                for strategy in [ring, DpSyncStrategy::ParameterServer { servers: 2 }] {
                    let stream = if preset == FaultPreset::PreemptStorm {
                        PREEMPT_SEED
                    } else {
                        seed
                    };
                    let seed = mix(stream, cells.len() as u64);
                    cells.push(Cell {
                        fleet,
                        preset,
                        strategy,
                        seed,
                    });
                }
            }
        }
        ChurnRecovery { fleets, cells }
    }

    /// Nodes a run lost to preemption or drain.
    fn lost_nodes(fleet: &Fleet, report: &ResilienceReport) -> BTreeSet<u32> {
        report
            .degraded_conditions
            .iter()
            .filter_map(|c| match c {
                DegradedCondition::NodeChurn { node, kind, .. }
                    if *kind != ChurnKind::NodeJoin && *node < fleet.topo.node_count() =>
                {
                    Some(*node)
                }
                _ => None,
            })
            .collect()
    }

    /// Samples the faulted iteration really completed. A restarted run
    /// replays the whole iteration; a run that continued on the survivors
    /// completes only the data-parallel replicas that kept every member.
    fn completed_samples(fleet: &Fleet, report: &ResilienceReport) -> f64 {
        let batch = global_batch(fleet.pg);
        if report.restart.is_some() {
            return batch;
        }
        let lost = Self::lost_nodes(fleet, report);
        let layout = &fleet.plan.layout;
        let gpus = fleet.topo.gpus_per_node();
        let broken: BTreeSet<u32> = (0..fleet.plan.assignment.len())
            .filter(|&l| lost.contains(&(fleet.plan.assignment.device_of(l).0 / gpus)))
            .map(|l| layout.dp_position_of(l))
            .collect();
        let d = f64::from(layout.degrees().data);
        batch * (d - broken.len() as f64) / d
    }

    /// Fault-path work counts, the churn re-plans timed from outside, and
    /// the symbolic progress check of every (fleet, preset).
    pub fn resilience_section(&self, tr: &mut Tracer) -> bool {
        let mut ok = true;
        let reliability = ReliabilityModel::default();
        for i in 0..self.cells.len() {
            let report = self.run(i, tr);
            let cell = &self.cells[i];
            let fleet = &self.fleets[cell.fleet];
            tr.count("engine.flow_retries", report.flow_retries as f64);
            tr.count(
                "engine.tcp_fallback_flows",
                report.tcp_fallback_flows as f64,
            );
            tr.count("engine.fault_windows", report.fault_windows.len() as f64);
            tr.count(
                "engine.restarts",
                f64::from(u8::from(report.restart.is_some())),
            );
            let Some(outcome) = &report.delta_replan else {
                continue;
            };
            // Re-plan the same delta with the inputs `run_resilient` prices
            // it with, and time it.
            let mut delta = TopologyDelta::new();
            for node in Self::lost_nodes(fleet, &report) {
                delta.node_loss(node);
            }
            let joins = report
                .degraded_conditions
                .iter()
                .filter(|c| {
                    matches!(
                        c,
                        DegradedCondition::NodeChurn {
                            kind: ChurnKind::NodeJoin,
                            ..
                        }
                    )
                })
                .count();
            for _ in 0..joins {
                delta.node_join(0);
            }
            let job = ParameterGroup::table2(fleet.pg).job();
            let degrees = fleet.plan.degrees();
            let stage_params = job.config.parameter_count() / u64::from(degrees.pipeline);
            let gradient = CommVolumes::dp_gradient_bytes(stage_params, degrees.tensor);
            let state = stage_params / u64::from(degrees.tensor) * BYTES_PER_PARAM_FULL;
            let restore =
                reliability.restart_overhead_seconds + reliability.checkpoint_seconds(&job.config);
            let workload = if fleet.topo.uniform_compute() {
                PlacementWorkload::gradient_only(gradient)
            } else {
                PlacementWorkload::new(gradient, placement_stage_flops(&job, degrees))
            };
            let costs = MigrationCosts::new(state, restore);
            let replan = tr.span("parallel.replan_for_delta", |_| {
                replan_for_delta_with(
                    &fleet.topo,
                    &fleet.plan,
                    &delta,
                    workload,
                    &GuidedPlanner,
                    &costs,
                )
            });
            match replan {
                Ok(o) => {
                    tr.count("parallel.delta_moves", o.migration.moves.len() as f64);
                    ok &= o.migration.moves == outcome.migration.moves;
                }
                Err(_) => ok = false,
            }
        }
        for (fleet_index, fleet) in self.fleets.iter().enumerate() {
            for preset in FaultPreset::ALL {
                let seed = self
                    .cells
                    .iter()
                    .find(|c| c.fleet == fleet_index && c.preset == preset)
                    .map_or(0, |c| c.seed);
                let report = tr.span("analysis.progress", |_| {
                    verify_preset_progress(&fleet.topo, fleet.pg, preset, seed, EventSpace::quick())
                });
                match report {
                    Ok(r) => {
                        tr.count("analysis.progress_scenarios", r.scenarios as f64);
                        ok &= r.is_clean();
                    }
                    Err(_) => ok = false,
                }
            }
        }
        ok
    }
}

impl Workload for ChurnRecovery {
    type Out = ResilienceReport;
    type Digest = Digest;

    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        format!(
            "{} {} fleet {} PG{}",
            c.preset.name(),
            c.strategy.name(),
            c.fleet,
            self.fleets[c.fleet].pg
        )
    }

    fn tail_pct(&self) -> f64 {
        99.0
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> ResilienceReport {
        let cell = &self.cells[i];
        let fleet = &self.fleets[cell.fleet];
        tr.span("core.run_resilient", |_| {
            run_resilient_with_strategy(
                &fleet.topo,
                fleet.pg,
                cell.preset,
                cell.seed,
                cell.strategy,
            )
        })
        .expect("resilience preset runs")
    }

    fn check(
        &mut self,
        i: usize,
        report: ResilienceReport,
        reference: Option<&Digest>,
        tr: &mut Tracer,
    ) -> (bool, Digest) {
        let cell = &self.cells[i];
        let fleet = &self.fleets[cell.fleet];
        let log = report.log_text();
        let mut ok = reference.is_none_or(|r| r.log == log);
        match cell.preset {
            FaultPreset::Clean => {
                ok &= report.faulted_seconds.to_bits() == report.clean_seconds.to_bits();
            }
            FaultPreset::FlakyTrunk | FaultPreset::DyingNic | FaultPreset::StragglerNode => {
                ok &= report.faulted_seconds >= report.clean_seconds;
            }
            _ => {}
        }
        if let Some(outcome) = &report.delta_replan {
            let defects = tr.span("analysis.verify_replan", |_| {
                let mut d = holmes_analysis::verify_replan(outcome);
                d.extend(holmes_analysis::verify_migration(
                    &outcome.new_topology,
                    &outcome.migration,
                ));
                d
            });
            ok &= defects.is_empty();
        }
        // The reported metrics must describe the faulted run and credit only
        // the samples it completed.
        let samples = Self::completed_samples(fleet, &report);
        let m = report.metrics;
        let credited = m.throughput_samples_per_sec * m.iteration_seconds;
        ok &=
            (m.iteration_seconds - report.faulted_seconds).abs() <= 1e-12 * report.faulted_seconds;
        ok &= credited <= samples * (1.0 + 1e-9);
        let digest = Digest {
            log,
            samples,
            seconds: report.faulted_seconds,
        };
        (ok, digest)
    }

    fn check_pass(&self, _pass: &[Digest]) -> Vec<usize> {
        Vec::new()
    }

    fn sim(&self, d: &Digest) -> (f64, f64) {
        (d.samples, d.seconds)
    }

    fn sections(&mut self, tr: &mut Tracer, m: &mut Metrics) -> bool {
        let mut ok = self.resilience_section(tr);
        ok &= crate::paper_grid::PaperGrid::probe(tr).observation_section(tr, m);
        ok &= crate::hetero_autotune::HeteroAutotune::probe(tr).autotune_section(tr, m);
        ok
    }
}
