//! Energy-efficiency and cost-efficiency (Fig. 15).
//!
//! The paper's metric (Sec. V-C):
//!
//! ```text
//! Cost-efficiency = Throughput × Duration / (CapEx + OpEx)
//! OpEx            = Σ (Power × Duration × Electricity)
//! ```
//!
//! Both systems sustain the same training demand, so `Throughput × Duration`
//! cancels in every ratio: energy-efficiency compares power draw,
//! cost-efficiency compares `CapEx + OpEx`.
//!
//! ```
//! use presto_bench::efficiency::fig15;
//!
//! let rows = fig15();
//! assert_eq!(rows.len(), 5);
//! for row in &rows {
//!     // PreSto wins on both axes for every model.
//!     assert!(row.energy_efficiency_gain > 1.0);
//!     assert!(row.cost_efficiency_gain > 1.0);
//! }
//! ```

use crate::deployment::Deployment;
use presto_core::provision::Provisioner;
use presto_datagen::RmConfig;

/// Fig. 15 data for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyComparison {
    /// Model name.
    pub model: String,
    /// The baseline deployment.
    pub disagg: Deployment,
    /// The PreSto deployment.
    pub presto: Deployment,
    /// Energy-efficiency improvement of PreSto (power ratio), Fig. 15(a).
    pub energy_efficiency_gain: f64,
    /// Cost-efficiency improvement of PreSto (total-cost ratio), Fig. 15(b).
    pub cost_efficiency_gain: f64,
}

/// Computes the Fig. 15 comparison for one model feeding `num_gpus` GPUs.
#[must_use]
pub fn compare(
    provisioner: &Provisioner,
    config: &RmConfig,
    num_gpus: usize,
) -> EfficiencyComparison {
    let disagg = Deployment::disagg(provisioner, config, num_gpus);
    let presto = Deployment::presto(provisioner, config, num_gpus);
    let energy_efficiency_gain = disagg.power.raw() / presto.power.raw();
    let cost_efficiency_gain = disagg.total_cost_usd() / presto.total_cost_usd();
    EfficiencyComparison {
        model: config.name.clone(),
        disagg,
        presto,
        energy_efficiency_gain,
        cost_efficiency_gain,
    }
}

/// Fig. 15 across all five models (8-GPU training node, as in the paper).
#[must_use]
pub fn fig15() -> Vec<EfficiencyComparison> {
    let p = Provisioner::poc();
    RmConfig::all().iter().map(|c| compare(&p, c, 8)).collect()
}

/// Arithmetic mean of a slice (helper for the summary rows).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_efficiency_band_matches_fig15a() {
        // Paper: 11.3× average, 15.1× maximum. Accept a generous band that
        // still proves the order of magnitude.
        let rows = fig15();
        let gains: Vec<f64> = rows.iter().map(|r| r.energy_efficiency_gain).collect();
        let avg = mean(&gains);
        let max = gains.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((7.0..=14.0).contains(&avg), "avg energy gain {avg:.1}");
        assert!((9.0..=16.0).contains(&max), "max energy gain {max:.1}");
    }

    #[test]
    fn cost_efficiency_band_matches_fig15b() {
        // Paper: 4.3× average, 5.6× maximum.
        let rows = fig15();
        let gains: Vec<f64> = rows.iter().map(|r| r.cost_efficiency_gain).collect();
        let avg = mean(&gains);
        let max = gains.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((3.0..=6.5).contains(&avg), "avg cost gain {avg:.1}");
        assert!((4.5..=7.5).contains(&max), "max cost gain {max:.1}");
    }

    #[test]
    fn production_models_gain_more_than_rm1() {
        let rows = fig15();
        let rm1 = &rows[0];
        for row in &rows[1..] {
            assert!(row.energy_efficiency_gain > rm1.energy_efficiency_gain, "{}", row.model);
            assert!(row.cost_efficiency_gain > rm1.cost_efficiency_gain, "{}", row.model);
        }
    }

    #[test]
    fn gains_are_ratios_of_deployment_quantities() {
        let p = Provisioner::poc();
        let row = compare(&p, &RmConfig::rm3(), 8);
        assert!(
            (row.energy_efficiency_gain - row.disagg.power.raw() / row.presto.power.raw()).abs()
                < 1e-12
        );
        assert!(
            (row.cost_efficiency_gain - row.disagg.total_cost_usd() / row.presto.total_cost_usd())
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
