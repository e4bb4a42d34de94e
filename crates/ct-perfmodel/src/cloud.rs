//! Cloud cost estimation — the paper's Section 6.2.1 argument that iFDK
//! is not locked to top-tier HPC systems: "generating a 4K volume ... can
//! be done, for example, on Amazon's AWS HPC offerings for the cost of
//! less than $100 ... using 256 p3.8xlarge EC2 instances ... at the price
//! of $12.24 per hour (March 2019 US east Ohio region) ... with billing
//! timed by seconds".

use crate::des::{simulate_pipeline, Overheads, PipelineSim};
use crate::model::ModelInput;

/// Per-instance cloud pricing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloudPricing {
    /// On-demand price per instance-hour (USD).
    pub usd_per_instance_hour: f64,
    /// GPUs per instance.
    pub gpus_per_instance: usize,
    /// Billing granularity in seconds (AWS bills per second with a
    /// 60-second minimum).
    pub min_billing_secs: f64,
}

impl CloudPricing {
    /// The paper's AWS p3.8xlarge quote (March 2019, us-east-2).
    pub fn aws_p3_8xlarge_2019() -> Self {
        Self {
            usd_per_instance_hour: 12.24,
            gpus_per_instance: 4,
            min_billing_secs: 60.0,
        }
    }
}

/// A costed reconstruction run.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Instances needed (`n_gpus / gpus_per_instance`).
    pub instances: usize,
    /// Billed wall time per instance, seconds.
    pub billed_secs: f64,
    /// Total cost (USD).
    pub usd: f64,
    /// The simulated run behind the estimate.
    pub sim: PipelineSim,
}

/// Estimate the cost of one reconstruction under `pricing`.
pub fn estimate_cost(
    input: &ModelInput,
    overheads: &Overheads,
    pricing: &CloudPricing,
) -> Result<CostEstimate, String> {
    input.validate()?;
    if pricing.gpus_per_instance == 0 {
        return Err("gpus_per_instance must be >= 1".into());
    }
    if !input.n_gpus().is_multiple_of(pricing.gpus_per_instance) {
        return Err(format!(
            "{} GPUs do not fill whole instances of {}",
            input.n_gpus(),
            pricing.gpus_per_instance
        ));
    }
    let sim = simulate_pipeline(input, overheads);
    let instances = input.n_gpus() / pricing.gpus_per_instance;
    let billed_secs = sim.t_runtime.max(pricing.min_billing_secs);
    let usd = instances as f64 * pricing.usd_per_instance_hour * billed_secs / 3600.0;
    Ok(CostEstimate {
        instances,
        billed_secs,
        usd,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn paper_aws_claim_under_100_usd() {
        // Section 6.2.1: a 4K reconstruction on 256 p3.8xlarge (1,024
        // GPUs) with a slow (10 Gb/s) network costs < $100.
        let mut input = ModelInput::paper_4k(1024);
        input.machine = MachineConfig::aws_p3();
        let est = estimate_cost(
            &input,
            &Overheads::default(),
            &CloudPricing::aws_p3_8xlarge_2019(),
        )
        .unwrap();
        assert_eq!(est.instances, 256);
        assert!(
            est.usd < 100.0,
            "estimated ${:.2} for {:.0} s on 256 instances",
            est.usd,
            est.billed_secs
        );
        // And it is a real cost, not a degenerate zero.
        assert!(est.usd > 1.0);
    }

    #[test]
    fn minimum_billing_applies() {
        let mut input = ModelInput::paper_4k(2048);
        input.machine = MachineConfig::abci();
        let pricing = CloudPricing {
            usd_per_instance_hour: 1.0,
            gpus_per_instance: 4,
            min_billing_secs: 3600.0, // hour-granularity billing
        };
        let est = estimate_cost(&input, &Overheads::default(), &pricing).unwrap();
        assert_eq!(est.billed_secs, 3600.0);
        assert!((est.usd - 512.0).abs() < 1e-9); // 512 instances * $1
    }

    #[test]
    fn partial_instances_rejected() {
        let input = ModelInput::paper_4k(32);
        let pricing = CloudPricing {
            gpus_per_instance: 5,
            ..CloudPricing::aws_p3_8xlarge_2019()
        };
        assert!(estimate_cost(&input, &Overheads::default(), &pricing).is_err());
    }
}
