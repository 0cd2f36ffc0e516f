//! Heterogeneous clusters: serving across pools of different device types.
//!
//! The paper deploys on homogeneous clusters (16× GTX 1080Ti, 100× K80);
//! mixed fleets are the realistic production case (DESIGN.md §17). A
//! [`DevicePool`] list is a first-class planner input: the pool-aware
//! planner ([`crate::control::plan_pooled`]) chooses the device class per
//! pipeline *stage* jointly with the SLO split, squishy-packs each pool on
//! its own device profiles, and the simulator
//! ([`crate::ClusterSim::try_new_pooled`]) deploys one control plane per
//! pool with cross-pool handoffs for staged queries.

use nexus_profile::DeviceType;

/// One homogeneous slice of a mixed fleet.
#[derive(Debug, Clone, Copy)]
pub struct DevicePool {
    /// Device type of every GPU in the pool.
    pub device: DeviceType,
    /// Pool size.
    pub gpus: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterSim, SimConfig};
    use crate::config::SystemConfig;
    use crate::control::{plan_pooled, PlanError, TrafficClass};
    use nexus_profile::{Micros, GPU_GTX1080TI, GPU_K80};
    use nexus_workload::{apps, ArrivalKind};

    fn pools() -> Vec<DevicePool> {
        vec![
            DevicePool {
                device: GPU_GTX1080TI,
                gpus: 8,
            },
            DevicePool {
                device: GPU_K80,
                gpus: 8,
            },
        ]
    }

    /// `(class, pool)` of every session the pooled planner places for
    /// `classes` on the full [`pools`].
    fn session_pools(classes: &[TrafficClass]) -> Vec<(usize, usize)> {
        let plan = plan_pooled(classes, &SystemConfig::nexus(), &pools(), &[8, 8], None).unwrap();
        plan.sessions.iter().map(|s| (s.class, s.pool)).collect()
    }

    #[test]
    fn demand_is_higher_on_slower_devices() {
        let cfg = SystemConfig::nexus();
        let classes = [TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Uniform,
            600.0,
        )];
        let gpus = |device| {
            let pool = [DevicePool { device, gpus: 256 }];
            plan_pooled(&classes, &cfg, &pool, &[256], None)
                .unwrap()
                .gpu_count()
        };
        let (fast, slow) = (gpus(GPU_GTX1080TI), gpus(GPU_K80));
        assert!(
            slow as f64 > fast as f64 * 1.5,
            "K80 needs {slow} GPUs vs 1080Ti {fast}"
        );
    }

    #[test]
    fn unknown_model_demand_is_a_typed_error() {
        let cfg = SystemConfig::nexus();
        let mut app = apps::traffic();
        app.stages[0].model = "no_such_model".to_string();
        let class = TrafficClass::new(app, ArrivalKind::Uniform, 50.0);
        // The pooled planner prices every stage on every pool; an unknown
        // model has no demand to price, so the whole plan is refused.
        let err = plan_pooled(std::slice::from_ref(&class), &cfg, &pools(), &[8, 8], None)
            .expect_err("unknown model must not be silent zero demand");
        assert_eq!(
            err,
            PlanError::UnknownModel {
                model: "no_such_model".to_string()
            }
        );
    }

    #[test]
    fn tight_slo_classes_land_on_the_fast_pool() {
        // game's 50 ms SLO is brutal on a K80; traffic's 400 ms is fine.
        let classes = vec![
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 800.0),
            TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 80.0),
        ];
        let game: Vec<usize> = session_pools(&classes)
            .into_iter()
            .filter(|&(class, _)| class == 0)
            .map(|(_, pool)| pool)
            .collect();
        assert!(!game.is_empty());
        assert!(game.iter().all(|&p| p == 0), "game needs the 1080Ti pool");
    }

    #[test]
    fn heterogeneous_fleet_serves_within_slo() {
        let classes = vec![
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 600.0),
            TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 60.0),
            TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 20.0),
        ];
        let result = ClusterSim::try_new_pooled(
            SimConfig {
                system: SystemConfig::nexus().with_static_allocation(),
                device: GPU_GTX1080TI,
                max_gpus: 0, // derived from the pools
                seed: 3,
                horizon: Micros::from_secs(12),
                warmup: Micros::from_secs(3),
                trace_capacity: 0,
                faults: vec![],
                shards: 1,
                threads: 1,
            },
            pools(),
            classes,
        )
        .unwrap()
        .run();
        assert!(result.query_goodput > 500.0);
        assert!(
            result.query_bad_rate < 0.03,
            "fleet bad rate {}",
            result.query_bad_rate
        );
        // One rollup per pool, and at least one pool actually deployed.
        assert_eq!(result.pool_stats.len(), 2);
        assert!(result.pool_stats.iter().any(|p| p.backends > 0));
    }

    #[test]
    fn placement_balances_by_capacity() {
        // Many medium classes: once the cheap pool's demand estimate hits
        // its slot cap, later classes must spill to the other pool.
        let classes: Vec<TrafficClass> = (0..6)
            .map(|_| TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 300.0))
            .collect();
        let on_fast = session_pools(&classes)
            .iter()
            .filter(|&&(_, pool)| pool == 0)
            .count();
        assert!(on_fast > 0);
        assert!(
            on_fast < session_pools(&classes).len(),
            "overflow should spill to the second pool"
        );
    }
}
