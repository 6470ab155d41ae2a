//! `hetero_autotune`: one `autotune` call per operation on a
//! mixed-generation or multi-cluster fleet. Planning dominates here, and the
//! closed-form estimator decides which plan is picked.

use holmes::engine::DpSyncStrategy;
use holmes::model::ParameterGroup;
use holmes::parallel::{GroupLayout, GuidedPlanner, ParallelDegrees, PlacementWorkload};
use holmes::topology::{presets, Topology};
use holmes::{
    autotune, estimate_iteration, placement_gradient_bytes, placement_stage_flops, plan_for,
    AutotuneRequest, Candidate, HolmesConfig, PlanRequest,
};

use crate::sections::{self, global_batch};
use crate::stats::{kendall_tau, median};
use crate::trace::Tracer;
use crate::{Metrics, Workload};

struct Preset {
    name: &'static str,
    topo: Topology,
    pg: u8,
}

type Build = fn() -> Topology;

/// A candidate's identity and scores, bit for bit.
type Ranked = Vec<(u32, u32, u32, u64, Option<u64>, bool)>;

pub struct Digest {
    ranking: Ranked,
    samples: f64,
    /// Simulated seconds of the pick, from the benchmark's own simulation
    /// of the picked plan.
    pick_seconds: f64,
}

pub struct HeteroAutotune {
    presets: Vec<Preset>,
}

fn ranking(ranked: &[Candidate]) -> Ranked {
    ranked
        .iter()
        .map(|c| {
            (
                c.tensor,
                c.pipeline,
                c.data,
                c.estimated_seconds.to_bits(),
                c.simulated.map(|m| m.iteration_seconds.to_bits()),
                c.fits_memory,
            )
        })
        .collect()
}

fn request(pg: u8) -> AutotuneRequest {
    AutotuneRequest::new(ParameterGroup::table2(pg).job())
}

impl HeteroAutotune {
    pub fn new(tr: &mut Tracer) -> Self {
        let builders: [(&'static str, Build, u8); 5] = [
            ("gen_split_2c", presets::gen_split_2c, 1),
            ("gen_mix_3c", presets::gen_mix_3c, 5),
            ("hybrid_split(4,4)", || presets::hybrid_split(4, 4), 3),
            ("table4_4r_4ib_4ib", presets::table4_4r_4ib_4ib, 6),
            ("fleet_hetero(6,2)", || presets::fleet_hetero(6, 2), 5),
        ];
        let presets = builders
            .into_iter()
            .map(|(name, build, pg)| Preset {
                name,
                topo: tr.span("topology.build", |_| build()),
                pg,
            })
            .collect();
        HeteroAutotune { presets }
    }

    /// PG3 on four IB plus four RoCE nodes, the cell all workloads share.
    pub fn probe(tr: &mut Tracer) -> Self {
        HeteroAutotune {
            presets: vec![Preset {
                name: "hybrid_split(4,4)",
                topo: sections::probe_topology(tr),
                pg: 3,
            }],
        }
    }

    /// Simulated seconds of plan `(t, p)` on preset `i`, through `plan_for`
    /// and the engine.
    fn simulate(&self, i: usize, t: u32, p: u32) -> Option<f64> {
        let preset = &self.presets[i];
        let job = ParameterGroup::table2(preset.pg).job();
        let req = PlanRequest {
            tensor_parallel: t,
            pipeline_parallel: p,
            job,
        };
        let (plan, engine_cfg) = plan_for(
            &preset.topo,
            &req,
            &HolmesConfig::full(),
            DpSyncStrategy::DistributedOptimizer,
        )
        .ok()?;
        let (report, _) =
            holmes::engine::simulate_iteration(&preset.topo, &plan, &job, &engine_cfg).ok()?;
        Some(report.total_seconds)
    }

    /// Planning cost and estimator fidelity on every preset: `autotune`
    /// with and without finalists, guided synthesis per `(t, p)` cell, and
    /// every memory-feasible candidate planned, estimated and simulated.
    pub fn autotune_section(&self, tr: &mut Tracer, m: &mut Metrics) -> bool {
        let cfg = HolmesConfig::full();
        let mut ok = true;
        let (mut errors, mut taus, mut regret) = (Vec::new(), Vec::new(), 0.0f64);
        for preset in &self.presets {
            let topo = &preset.topo;
            let req = request(preset.pg);
            let enumerate_only = AutotuneRequest { top_k: 0, ..req };
            tr.span("core.autotune_enumerate", |_| {
                autotune(topo, &enumerate_only, &cfg)
            });
            let ranked = tr.span("core.autotune", |_| autotune(topo, &req, &cfg));
            tr.count("core.autotune_candidates", ranked.len() as f64);
            let (mut est, mut sim, mut pick) = (Vec::new(), Vec::new(), None);
            for (k, c) in ranked.iter().enumerate() {
                let Ok(degrees) =
                    ParallelDegrees::infer_data(c.tensor, c.pipeline, topo.device_count())
                else {
                    ok = false;
                    continue;
                };
                let gradient = placement_gradient_bytes(&req.job, degrees);
                let workload = if topo.uniform_compute() {
                    PlacementWorkload::gradient_only(gradient)
                } else {
                    PlacementWorkload::new(gradient, placement_stage_flops(&req.job, degrees))
                };
                let layout = GroupLayout::new(degrees);
                let (_, stats) = tr.span("parallel.synth", |_| {
                    GuidedPlanner.plan_workload_with_stats(topo, &layout, workload)
                });
                tr.count("parallel.synth_expanded", stats.expanded as f64);
                tr.count("parallel.synth_pruned", stats.pruned_total() as f64);
                let plan_req = PlanRequest {
                    tensor_parallel: c.tensor,
                    pipeline_parallel: c.pipeline,
                    job: req.job,
                };
                let Ok((plan, engine_cfg)) = tr.span("core.plan_for", |_| {
                    plan_for(topo, &plan_req, &cfg, DpSyncStrategy::DistributedOptimizer)
                }) else {
                    ok = false;
                    continue;
                };
                let estimate = tr.span("core.estimate_iteration", |_| {
                    estimate_iteration(topo, &plan, &req.job, &engine_cfg)
                });
                ok &= sections::verify_plan(topo, &plan, preset.pg, tr);
                if !c.fits_memory {
                    continue;
                }
                let Some(spec) = sections::build(topo, &plan, &req.job, &engine_cfg, tr) else {
                    ok = false;
                    continue;
                };
                ok &= sections::verify_spec(topo, &spec, tr);
                let (Some(report), Some(estimate)) = (sections::run_spec(topo, spec, tr), estimate)
                else {
                    ok = false;
                    continue;
                };
                if k == 0 {
                    pick = Some(report.total_seconds);
                }
                est.push(estimate.seconds);
                sim.push(report.total_seconds);
            }
            let best = sim.iter().copied().fold(f64::INFINITY, f64::min);
            let preset_regret = pick.map_or(f64::NAN, |p| p / best);
            let tau = kendall_tau(&est, &sim);
            let errs: Vec<f64> = est
                .iter()
                .zip(&sim)
                .map(|(e, s)| (e - s).abs() / s)
                .collect();
            eprintln!(
                "fidelity {:18} feasible {:2} regret {:.4} tau {:+.3} err p50 {:.3} max {:.3}",
                preset.name,
                sim.len(),
                preset_regret,
                tau,
                median(&errs),
                errs.iter().copied().fold(0.0, f64::max)
            );
            ok &= preset_regret.is_finite();
            regret = regret.max(preset_regret);
            taus.push(tau);
            errors.extend(errs);
        }
        m.put("core.estimate_err_p50", median(&errors), "ratio");
        m.put(
            "core.estimate_err_max",
            errors.iter().copied().fold(0.0, f64::max),
            "ratio",
        );
        m.put("core.estimate_kendall_tau", median(&taus), "tau");
        m.put("core.autotune_regret", regret, "ratio");
        ok
    }
}

impl Workload for HeteroAutotune {
    type Out = Vec<Candidate>;
    type Digest = Digest;

    fn ops(&self) -> usize {
        self.presets.len()
    }

    fn label(&self, i: usize) -> String {
        format!("autotune {} PG{}", self.presets[i].name, self.presets[i].pg)
    }

    fn tail_pct(&self) -> f64 {
        75.0
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Vec<Candidate> {
        let preset = &self.presets[i];
        let req = request(preset.pg);
        tr.span("core.autotune", |_| {
            autotune(&preset.topo, &req, &HolmesConfig::full())
        })
    }

    fn check(
        &mut self,
        i: usize,
        ranked: Vec<Candidate>,
        reference: Option<&Digest>,
        tr: &mut Tracer,
    ) -> (bool, Digest) {
        let preset = &self.presets[i];
        let (n, g) = (preset.topo.device_count(), preset.topo.gpus_per_node());
        let mut ok = !ranked.is_empty();
        for c in &ranked {
            ok &= c.tensor * c.pipeline * c.data == n;
            ok &= c.tensor.is_power_of_two() && c.tensor <= g;
            if let Some(plan) = c.plan() {
                ok &= sections::verify_plan(&preset.topo, plan, preset.pg, tr);
            }
        }
        let pick = ranked.first();
        ok &= pick.is_some_and(|c| c.simulated.is_some() && c.fits_memory);
        let ranking = ranking(&ranked);
        let pick_seconds = match reference {
            Some(r) => {
                ok &= r.ranking == ranking;
                r.pick_seconds
            }
            None => pick
                .and_then(|c| self.simulate(i, c.tensor, c.pipeline))
                .unwrap_or(f64::NAN),
        };
        // The benchmark's own simulation of the pick must match the
        // autotuner's.
        ok &= pick
            .and_then(|c| c.simulated)
            .is_some_and(|m| m.iteration_seconds.to_bits() == pick_seconds.to_bits());
        let digest = Digest {
            ranking,
            samples: global_batch(preset.pg),
            pick_seconds,
        };
        (ok, digest)
    }

    fn check_pass(&self, _pass: &[Digest]) -> Vec<usize> {
        Vec::new()
    }

    fn sim(&self, d: &Digest) -> (f64, f64) {
        (d.samples, d.pick_seconds)
    }

    fn sections(&mut self, tr: &mut Tracer, m: &mut Metrics) -> bool {
        let mut ok = self.autotune_section(tr, m);
        ok &= crate::paper_grid::PaperGrid::probe(tr).observation_section(tr, m);
        ok &= crate::churn_recovery::ChurnRecovery::probe(tr).resilience_section(tr);
        ok
    }
}
