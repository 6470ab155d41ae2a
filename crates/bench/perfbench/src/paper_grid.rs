//! `paper_grid`: one what-if query per cell of the paper's evaluation —
//! Table 3, Table 4, and the Table 5 ablations and Fig. 6 frameworks.
//! Nearly all of an operation's host time is in the executor and netsim.

use std::time::Instant;

use holmes::engine::{DpSyncStrategy, IterationReport, TrainingMetrics};
use holmes::topology::{presets, NicType, Topology};
use holmes::{
    plan_for, run_framework, run_holmes_with, run_scenario, run_scenario_observed, FrameworkKind,
    HolmesConfig, PlanRequest, Scenario,
};

use crate::sections::{self, eq6_flops, framework_entry, global_batch, layers};
use crate::trace::Tracer;
use crate::{Metrics, Workload};

#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Table 3 cell: (parameter group 1–4, environment index, node count).
    Table3(u8, usize, u32),
    Table4,
    /// Table 5 ablation or Fig. 6 framework other than full Holmes.
    Compared(&'static str),
}

#[derive(Clone, Copy)]
enum Runner {
    Framework(FrameworkKind),
    Holmes(HolmesConfig),
}

struct Cell {
    role: Role,
    topo: Topology,
    pg: u8,
    runner: Runner,
    /// Paper TFLOPS/GPU for the cells that score the model against the
    /// paper (Table 3 and 4, less the Table 1 calibration cells).
    paper_tflops: Option<f64>,
}

impl Cell {
    fn entry(&self) -> (HolmesConfig, DpSyncStrategy) {
        match self.runner {
            Runner::Framework(kind) => framework_entry(kind),
            Runner::Holmes(cfg) => (cfg, DpSyncStrategy::DistributedOptimizer),
        }
    }
}

pub struct Out {
    metrics: TrainingMetrics,
    report: IterationReport,
    stage_layers: Vec<u32>,
}

pub struct Digest {
    tflops: f64,
    seconds: f64,
    samples: f64,
}

const ENVS: [&str; 4] = ["IB", "RoCE", "Ethernet", "Hybrid"];
const NODES: [u32; 3] = [4, 6, 8];

/// Paper Table 3 TFLOPS/GPU: `[pg][env][nodes]`.
const TABLE3_TFLOPS: [[[f64; 3]; 4]; 4] = [
    [
        [197.0, 188.0, 148.0],
        [160.0, 151.0, 145.0],
        [122.0, 99.0, 83.0],
        [149.0, 129.0, 112.0],
    ],
    [
        [206.0, 200.0, 156.0],
        [168.0, 162.0, 159.0],
        [145.0, 128.0, 114.0],
        [162.0, 152.0, 132.0],
    ],
    [
        [229.0, 220.0, 189.0],
        [196.0, 185.0, 185.0],
        [168.0, 143.0, 132.0],
        [191.0, 170.0, 168.0],
    ],
    [
        [233.0, 228.0, 196.0],
        [201.0, 193.0, 194.0],
        [180.0, 168.0, 158.0],
        [200.0, 187.0, 177.0],
    ],
];

type Build = fn() -> Topology;

fn environment(env: usize, nodes: u32) -> Topology {
    match env {
        0 => presets::homogeneous(NicType::InfiniBand, nodes),
        1 => presets::homogeneous(NicType::RoCE, nodes),
        2 => presets::homogeneous(NicType::Ethernet, nodes),
        _ => presets::hybrid_two_cluster(nodes / 2),
    }
}

pub struct PaperGrid {
    cells: Vec<Cell>,
}

impl PaperGrid {
    pub fn new(tr: &mut Tracer) -> Self {
        let holmes = Runner::Framework(FrameworkKind::Holmes);
        let mut cells = Vec::new();
        for pg in 1..=4u8 {
            for (env, paper) in TABLE3_TFLOPS[usize::from(pg) - 1].iter().enumerate() {
                for (&nodes, &tflops) in NODES.iter().zip(paper) {
                    // PG1 on four homogeneous nodes is Table 1, which the
                    // compute model is calibrated on.
                    let calibration = pg == 1 && nodes == 4 && env < 3;
                    cells.push(Cell {
                        role: Role::Table3(pg, env, nodes),
                        topo: tr.span("topology.build", |_| environment(env, nodes)),
                        pg,
                        runner: holmes,
                        paper_tflops: (!calibration).then_some(tflops),
                    });
                }
            }
        }
        // Table 4: three-cluster hybrids and the same node count on
        // Ethernet (both six-node columns share one Ethernet cell).
        let table4: [(Build, u32, [f64; 2], [f64; 2]); 3] = [
            (presets::table4_2r_2r_2ib, 6, [163.0, 174.0], [143.0, 160.0]),
            (
                presets::table4_2r_2ib_2ib,
                6,
                [161.0, 169.0],
                [143.0, 160.0],
            ),
            (
                presets::table4_4r_4ib_4ib,
                12,
                [138.0, 146.0],
                [95.0, 122.0],
            ),
        ];
        for (i, pg) in [5u8, 6].into_iter().enumerate() {
            for (ci, (build, nodes, hybrid, eth)) in table4.iter().enumerate() {
                cells.push(Cell {
                    role: Role::Table4,
                    topo: tr.span("topology.build", |_| build()),
                    pg,
                    runner: holmes,
                    paper_tflops: Some(hybrid[i]),
                });
                if ci != 1 {
                    cells.push(Cell {
                        role: Role::Table4,
                        topo: tr.span("topology.build", |_| {
                            presets::homogeneous(NicType::Ethernet, *nodes)
                        }),
                        pg,
                        runner: holmes,
                        paper_tflops: Some(eth[i]),
                    });
                }
            }
        }
        // Table 5 and Fig. 6 on four IB + four RoCE nodes, PG3. Full Holmes
        // there is the Table 3 cell (PG3, Hybrid, 8 nodes).
        let compared = [
            ("Megatron-LM", Runner::Framework(FrameworkKind::MegatronLm)),
            (
                "Megatron-DeepSpeed",
                Runner::Framework(FrameworkKind::MegatronDeepSpeed),
            ),
            (
                "Megatron-LLaMA",
                Runner::Framework(FrameworkKind::MegatronLlama),
            ),
            (
                "w/o self-adapting",
                Runner::Holmes(HolmesConfig::without_self_adapting()),
            ),
            (
                "w/o overlapped",
                Runner::Holmes(HolmesConfig::without_overlapped_optimizer()),
            ),
            ("w/o both", Runner::Holmes(HolmesConfig::without_both())),
        ];
        for (name, runner) in compared {
            cells.push(Cell {
                role: Role::Compared(name),
                topo: tr.span("topology.build", |_| presets::hybrid_split(4, 4)),
                pg: 3,
                runner,
                paper_tflops: None,
            });
        }
        PaperGrid { cells }
    }

    /// The two cells the other workloads share with this one: PG3 on four
    /// IB plus four RoCE nodes (Table 3) and PG6 on 4 RoCE + 4 IB + 4 IB
    /// (Table 4).
    pub fn probe(tr: &mut Tracer) -> Self {
        let holmes = Runner::Framework(FrameworkKind::Holmes);
        PaperGrid {
            cells: vec![
                Cell {
                    role: Role::Table3(3, 3, 8),
                    topo: sections::probe_topology(tr),
                    pg: 3,
                    runner: holmes,
                    paper_tflops: Some(TABLE3_TFLOPS[2][3][2]),
                },
                Cell {
                    role: Role::Table4,
                    topo: tr.span("topology.build", |_| presets::table4_4r_4ib_4ib()),
                    pg: 6,
                    runner: holmes,
                    paper_tflops: Some(146.0),
                },
            ],
        }
    }

    /// Observation cost and model error on these cells: each runs once
    /// plainly and once observed. The observed run must report a
    /// bit-identical iteration time.
    pub fn observation_section(&self, tr: &mut Tracer, m: &mut Metrics) -> bool {
        let (mut plain_s, mut observed_s) = (0.0, 0.0);
        let (mut plain_events, mut observed_events) = (0u64, 0u64);
        let mut errors = Vec::new();
        let mut ok = true;
        for cell in &self.cells {
            let (cfg, fallback) = cell.entry();
            let scenario = Scenario::new(cell.topo.clone(), cell.pg);
            let t = Instant::now();
            let plain = tr.span("core.run_scenario", |_| {
                run_scenario(&scenario, &cfg, fallback)
            });
            plain_s += t.elapsed().as_secs_f64();
            let mut session = holmes::obs::ObsSession::new();
            let t = Instant::now();
            let observed = tr.span("core.run_scenario_observed", |_| {
                run_scenario_observed(&scenario, &cfg, fallback, &mut session)
            });
            observed_s += t.elapsed().as_secs_f64();
            let (Ok(plain), Ok(observed)) = (plain, observed) else {
                ok = false;
                continue;
            };
            ok &= plain.metrics.iteration_seconds.to_bits()
                == observed.metrics.iteration_seconds.to_bits();
            plain_events += plain.report.events;
            observed_events += observed.report.events;
            if let Some(paper) = cell.paper_tflops {
                errors.push((plain.metrics.tflops_per_gpu - paper).abs() / paper);
            }
        }
        m.put("obs.observed_cost_ratio", observed_s / plain_s, "ratio");
        m.put(
            "obs.observed_event_delta",
            (observed_events as f64 - plain_events as f64) / plain_events as f64,
            "ratio",
        );
        m.put(
            "model.paper_err_p50",
            crate::stats::median(&errors),
            "ratio",
        );
        ok
    }
}

impl Workload for PaperGrid {
    type Out = Out;
    type Digest = Digest;

    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        let role = match c.role {
            Role::Table3(_, env, nodes) => format!("table3 {} {nodes}n", ENVS[env]),
            Role::Table4 => format!("table4 {} nodes", c.topo.node_count()),
            Role::Compared(name) => format!("table5/fig6 {name}"),
        };
        format!("{role} PG{}", c.pg)
    }

    fn tail_pct(&self) -> f64 {
        99.0
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Out {
        let cell = &self.cells[i];
        if !tr.is_on() {
            let result = match cell.runner {
                Runner::Framework(kind) => run_framework(kind, &cell.topo, cell.pg),
                Runner::Holmes(cfg) => run_holmes_with(&cfg, &cell.topo, cell.pg),
            }
            .expect("paper cell runs");
            return Out {
                metrics: result.metrics,
                report: result.report,
                stage_layers: result.stage_layers,
            };
        }
        // The same query, one layer at a time.
        let (cfg, fallback) = cell.entry();
        let request = PlanRequest::parameter_group(cell.pg);
        let (plan, engine_cfg) = tr
            .span("core.plan_for", |_| {
                plan_for(&cell.topo, &request, &cfg, fallback)
            })
            .expect("paper cell plans");
        let spec = sections::build(&cell.topo, &plan, &request.job, &engine_cfg, tr)
            .expect("paper cell builds");
        let report = sections::run_spec(&cell.topo, spec, tr).expect("paper cell executes");
        tr.span("parallel.nic_report", |_| plan.nic_report(&cell.topo));
        Out {
            metrics: TrainingMetrics::from_report(&request.job, plan.degrees().devices(), &report),
            report,
            stage_layers: plan.stage_layers.clone(),
        }
    }

    fn check(
        &mut self,
        i: usize,
        out: Out,
        reference: Option<&Digest>,
        tr: &mut Tracer,
    ) -> (bool, Digest) {
        let cell = &self.cells[i];
        let gpus = f64::from(cell.topo.device_count());
        let seconds = out.report.total_seconds;
        let tflops = eq6_flops(cell.pg) / (out.metrics.iteration_seconds * gpus) / 1e12;
        let mut ok = (tflops - out.metrics.tflops_per_gpu).abs() <= 1e-9 * tflops
            && out.metrics.iteration_seconds == seconds
            && out.stage_layers.iter().sum::<u32>() == layers(cell.pg);
        let busiest = out
            .report
            .device_compute_seconds
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        ok &= seconds >= busiest;
        // Verify the plan and collectives the query executed.
        let (cfg, fallback) = cell.entry();
        let request = PlanRequest::parameter_group(cell.pg);
        match plan_for(&cell.topo, &request, &cfg, fallback) {
            Ok((plan, engine_cfg)) => {
                ok &= plan.stage_layers == out.stage_layers;
                ok &= sections::verify_plan(&cell.topo, &plan, cell.pg, tr);
                match holmes::engine::build_iteration(&cell.topo, &plan, &request.job, &engine_cfg)
                {
                    Ok(spec) => ok &= sections::verify_spec(&cell.topo, &spec, tr),
                    Err(_) => ok = false,
                }
            }
            Err(_) => ok = false,
        }
        if let Some(r) = reference {
            ok &= r.seconds.to_bits() == seconds.to_bits();
        }
        let digest = Digest {
            tflops: out.metrics.tflops_per_gpu,
            seconds,
            samples: global_batch(cell.pg),
        };
        (ok, digest)
    }

    fn check_pass(&self, pass: &[Digest]) -> Vec<usize> {
        let find = |role: Role| {
            self.cells
                .iter()
                .position(|c| c.role == role)
                .expect("role present")
        };
        let tf = |i: usize| pass[i].tflops;
        let mut failed = Vec::new();
        // (cell expected at least as fast, cell expected slower or equal).
        let mut pairs = Vec::new();
        for pg in 1..=4u8 {
            for &nodes in &NODES {
                let at = |env| find(Role::Table3(pg, env, nodes));
                pairs.extend([(at(0), at(1)), (at(1), at(2)), (at(3), at(2))]);
            }
        }
        let holmes = find(Role::Table3(3, 3, 8));
        let named = |n| find(Role::Compared(n));
        let (lm, no_sa, no_ov, no_both) = (
            named("Megatron-LM"),
            named("w/o self-adapting"),
            named("w/o overlapped"),
            named("w/o both"),
        );
        pairs.extend([
            (holmes, no_sa),
            (holmes, no_ov),
            (no_sa, no_both),
            (no_ov, no_both),
            (no_sa, no_ov),
        ]);
        for (hi, lo) in pairs {
            if tf(hi) < tf(lo) {
                failed.push(hi);
            }
        }
        // Strict wins: Holmes over every Fig. 6 baseline, and NIC selection
        // alone over Megatron-LM.
        for (hi, lo) in [
            (holmes, lm),
            (holmes, named("Megatron-DeepSpeed")),
            (holmes, named("Megatron-LLaMA")),
            (no_both, lm),
        ] {
            if tf(hi) <= tf(lo) {
                failed.push(hi);
            }
        }
        failed
    }

    fn sim(&self, d: &Digest) -> (f64, f64) {
        (d.samples, d.seconds)
    }

    fn sections(&mut self, tr: &mut Tracer, m: &mut Metrics) -> bool {
        let mut ok = self.observation_section(tr, m);
        ok &= crate::hetero_autotune::HeteroAutotune::probe(tr).autotune_section(tr, m);
        ok &= crate::churn_recovery::ChurnRecovery::probe(tr).resilience_section(tr);
        ok
    }
}
