//! Quality of what training returns, computed after the timed window: the
//! simulated training cost (Fig. 16), the prediction error of every menu
//! option at the Table-1 parameters (the `juggler doctor` ledger method:
//! one validation run per option, seed `seed + 7000 + schedule index`),
//! and the simulated cost of the cheapest option (Fig. 14), with its
//! regret against the cheapest machine count of a 1–12 sweep of the same
//! schedule.
//!
//! Each family is trained at `SEEDS_PER_FAMILY` seeds. The costs are
//! medians over a family's seeds, summed over the five families: about one
//! training in a hundred hits a stage-3 calibration target it cannot reach
//! and clamps, and its simulated calibration run then costs ~1e13
//! machine-minutes, so a mean would swing with such rare seeds (the run
//! reports how many trainings left a calibration note). The prediction
//! error is the mean over every training, which steadies it fastest. All
//! scores are deterministic for a given `--seed`; a performance change must
//! leave them bit-identical.

use std::sync::Arc;

use cluster_sim::{ClusterConfig, Engine, EnginePrep, RunOptions};
use juggler::pipeline::OfflineTraining;
use workloads::Workload;

use crate::median;
use crate::train::{config, family_seed};

/// Training seeds per family; the first ones are `train_paper`'s op
/// inputs.
const SEEDS_PER_FAMILY: usize = 40;
/// Seeds per family whose cheapest option is also swept over 1–12
/// machines for the regret note.
const SWEPT_SEEDS: usize = 4;

pub struct Quality {
    pub train_cost_mm: f64,
    pub pred_err_pct: f64,
    pub rec_cost_mm: f64,
    /// Often exactly 0, so it is reported beside the metrics, not as one.
    pub regret_pct: f64,
    /// Trainings whose pipeline left a calibration note (a clamped
    /// stage-3 target, a retried run).
    pub noted: usize,
    pub trainings: usize,
}

/// Trains every family at `SEEDS_PER_FAMILY` seeds drawn from `seed` and
/// scores the results.
pub fn compute(seed: u64) -> Result<Quality, String> {
    let mut q = Quality {
        train_cost_mm: 0.0,
        pred_err_pct: 0.0,
        rec_cost_mm: 0.0,
        regret_pct: 0.0,
        noted: 0,
        trainings: 0,
    };
    let families = workloads::all_workloads();
    for (family, w) in families.iter().enumerate() {
        let w: &dyn Workload = w.as_ref();
        let paper = w.paper_params();
        let (e, f) = (paper.examples as f64, paper.features as f64);
        let app = w.build(&paper);
        let prep = Arc::new(EnginePrep::new(&app));
        let (mut cost, mut err, mut chosen, mut regret) = (vec![], vec![], vec![], vec![]);
        for slot in 0..SEEDS_PER_FAMILY {
            let cfg = config(family_seed(seed, family, slot));
            let (trained, timings) =
                OfflineTraining::run_traced(w, &cfg).map_err(|e| e.to_string())?;
            q.trainings += 1;
            q.noted += usize::from(!timings.notes.is_empty());
            cost.push(trained.costs.total_machine_minutes());
            let menu = trained.recommend(e, f);
            let run = |machines: u32, option: &juggler::Recommendation| {
                let mut sim = w.sim_params();
                sim.seed = cfg.seed.wrapping_add(7000 + option.schedule_index as u64);
                let cluster = ClusterConfig::new(machines.max(1), cfg.target_spec);
                Engine::with_prep(&app, cluster, sim, Arc::clone(&prep))
                    .run_shared(&option.schedule, RunOptions::default())
                    .map_err(|e| e.to_string())
            };
            let mut errs = Vec::with_capacity(menu.options.len());
            for option in &menu.options {
                let actual = run(option.machines, option)?.total_time_s;
                errs.push((option.predicted_time_s - actual).abs() / actual);
            }
            err.push(errs.iter().sum::<f64>() / errs.len().max(1) as f64);
            let cheapest = menu.cheapest().ok_or("empty recommendation menu")?;
            let paid = run(cheapest.machines, cheapest)?.cost_machine_minutes();
            chosen.push(paid);
            if slot < SWEPT_SEEDS {
                let mut best = f64::INFINITY;
                for machines in 1..=cfg.max_machines {
                    best = best.min(run(machines, cheapest)?.cost_machine_minutes());
                }
                regret.push(paid / best - 1.0);
            }
        }
        q.train_cost_mm += median(&mut cost);
        q.rec_cost_mm += median(&mut chosen);
        q.pred_err_pct +=
            err.iter().sum::<f64>() * 100.0 / (SEEDS_PER_FAMILY * families.len()) as f64;
        q.regret_pct += median(&mut regret) * 100.0 / families.len() as f64;
    }
    Ok(q)
}
