//! Sharding a deployment across parallel workers.
//!
//! The paper's multi-server slicing (§6.2.4) statically partitions a pipe's
//! lookup table into per-server *slices*, keyed by ingress port: a packet's
//! port decides which slice's circular buffers its tagger walks, and the
//! slices never share register cells. [`ShardPlan`] reuses exactly that
//! port→slice mapping to partition a deployment across execution workers:
//! each worker receives the slices assigned to it as a standalone
//! [`ParkConfig`] and therefore owns a disjoint portion of the parking
//! store. Because a slice's tagger, metadata entries and payload cells are
//! only ever touched by packets of that slice's ports, running the shards
//! concurrently is observationally identical to running the original
//! multi-slice program one packet at a time — the property the fastpath
//! equivalence oracle verifies.

use crate::config::{ParkConfig, PipePark};
use pp_rmt::chip::PortMap;

/// A partition of one deployment into per-worker sub-deployments.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    configs: Vec<ParkConfig>,
    /// Flat port-indexed table: the engine's dispatcher consults it once
    /// per packet in the one part of a wave no worker can overlap.
    port_to_shard: PortMap<usize>,
}

impl ShardPlan {
    /// Splits `cfg` into `workers` disjoint shards.
    ///
    /// Requirements, mirroring what the static slicing of §6.2.4 can
    /// express: the deployment must program exactly one pipe, carry at
    /// least one slice per worker, and not use recirculation when sharding
    /// (an annex pipe stripes *one* slice across two pipes; `workers == 1`
    /// keeps it). Slices are dealt round-robin to workers in declaration
    /// order, so worker *w* owns slices `w, w + workers, …`.
    pub fn new(cfg: &ParkConfig, workers: usize) -> Result<ShardPlan, String> {
        cfg.validate()?;
        if workers == 0 {
            return Err("need at least one worker".into());
        }
        let [pipe_cfg]: &[PipePark] = cfg.pipes.as_slice() else {
            return Err(format!(
                "sharding expects a single-pipe deployment, got {} pipes",
                cfg.pipes.len()
            ));
        };
        if pipe_cfg.slices.len() < workers {
            return Err(format!(
                "{} workers need at least as many slices, got {}",
                workers,
                pipe_cfg.slices.len()
            ));
        }
        if pipe_cfg.annex_pipe.is_some() && workers > 1 {
            return Err("recirculation deployments cannot be sharded".into());
        }

        let mut port_to_shard = PortMap::new();
        let mut configs = Vec::with_capacity(workers);
        for w in 0..workers {
            let slices: Vec<_> = pipe_cfg
                .slices
                .iter()
                .enumerate()
                .filter(|(i, _)| i % workers == w)
                .map(|(_, s)| s.clone())
                .collect();
            for slice in &slices {
                for &p in slice.split_ports.iter().chain(&slice.merge_ports) {
                    port_to_shard.insert(p, w);
                }
            }
            let shard = ParkConfig {
                pipes: vec![PipePark {
                    pipe: pipe_cfg.pipe,
                    slices,
                    annex_pipe: pipe_cfg.annex_pipe,
                }],
                ..cfg.clone()
            };
            shard.validate().map_err(|e| format!("shard {w}: {e}"))?;
            configs.push(shard);
        }
        Ok(ShardPlan { configs, port_to_shard })
    }

    /// Number of workers in the plan.
    pub fn workers(&self) -> usize {
        self.configs.len()
    }

    /// The sub-deployment worker `w` runs.
    pub fn config(&self, w: usize) -> &ParkConfig {
        &self.configs[w]
    }

    /// All per-worker sub-deployments, in worker order.
    pub fn configs(&self) -> &[ParkConfig] {
        &self.configs
    }

    /// The worker that owns `port` (split or merge), if any.
    pub fn shard_of_port(&self, port: u16) -> Option<usize> {
        self.port_to_shard.get(port).copied()
    }

    /// Total lookup-table slots across all shards — equals the original
    /// deployment's slot count (the partition neither loses nor duplicates
    /// parking capacity).
    pub fn total_slots(&self) -> usize {
        self.configs.iter().map(|c| c.pipes[0].total_slots()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SliceSpec;
    use pp_rmt::chip::ChipProfile;

    /// `n` slices on pipe 0: slice k splits on port 2k, merges on 2k+1.
    fn sliced(n: usize, slots: usize) -> ParkConfig {
        let mut cfg = ParkConfig::single_server(ChipProfile::default(), vec![0], 1, slots);
        cfg.pipes[0].slices = (0..n)
            .map(|k| SliceSpec {
                name: format!("server{k}"),
                split_ports: vec![2 * k as u16],
                merge_ports: vec![2 * k as u16 + 1],
                slots,
            })
            .collect();
        cfg
    }

    #[test]
    fn round_robin_partition_covers_all_slices() {
        let cfg = sliced(4, 256);
        let plan = ShardPlan::new(&cfg, 2).unwrap();
        assert_eq!(plan.workers(), 2);
        assert_eq!(plan.config(0).pipes[0].slices.len(), 2);
        assert_eq!(plan.config(0).pipes[0].slices[0].name, "server0");
        assert_eq!(plan.config(0).pipes[0].slices[1].name, "server2");
        assert_eq!(plan.config(1).pipes[0].slices[0].name, "server1");
        assert_eq!(plan.total_slots(), 4 * 256);
        assert_eq!(plan.configs().len(), 2);
    }

    #[test]
    fn port_mapping_follows_slice_assignment() {
        let cfg = sliced(4, 64);
        let plan = ShardPlan::new(&cfg, 4).unwrap();
        for k in 0..4u16 {
            assert_eq!(plan.shard_of_port(2 * k), Some(usize::from(k)));
            assert_eq!(plan.shard_of_port(2 * k + 1), Some(usize::from(k)));
        }
        assert_eq!(plan.shard_of_port(9), None);
    }

    #[test]
    fn single_worker_plan_is_the_original_config() {
        let cfg = sliced(3, 128);
        let plan = ShardPlan::new(&cfg, 1).unwrap();
        assert_eq!(plan.config(0), &cfg);
    }

    #[test]
    fn rejects_invalid_plans() {
        let cfg = sliced(2, 64);
        assert!(ShardPlan::new(&cfg, 0).is_err());
        assert!(ShardPlan::new(&cfg, 3).is_err(), "more workers than slices");

        let mut annex = sliced(1, 64);
        annex.pipes[0].annex_pipe = Some(1);
        assert!(ShardPlan::new(&annex, 2).is_err());
        ShardPlan::new(&annex, 1).unwrap();

        let mut two_pipes = sliced(2, 64);
        let mut second = two_pipes.pipes[0].clone();
        second.pipe = 1;
        for s in &mut second.slices {
            s.split_ports.iter_mut().for_each(|p| *p += 16);
            s.merge_ports.iter_mut().for_each(|p| *p += 16);
        }
        two_pipes.pipes.push(second);
        assert!(ShardPlan::new(&two_pipes, 2).is_err());
    }
}
