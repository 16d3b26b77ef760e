//! Deployment-level drivers: verify every pipe of a [`ParkConfig`],
//! bridging recirculation metadata facts from primary to annex pipes.

use payloadpark::flowstore::shared;
use payloadpark::program::build_switch;
use payloadpark::{build_store_switch_with_bases, BuildError, ParkConfig, SlabStore};

use crate::dataflow;
use crate::diag::{Code, Diagnostic, Report};
use crate::ir::ProgramIr;
use crate::locality;

/// Verifies a whole PayloadPark deployment: builds the switch program
/// (config time — no packets flow), extracts the IR of every programmed
/// pipe and runs passes 1–3 on each. When a pipe recirculates into an
/// annex pipe, the metadata facts guaranteed at every recirculation site
/// (per channel) become entry facts of the annex pipe's recirculation
/// ports, so the annex tables' `pp.tbl_idx`/checksum reads resolve.
/// Pass-PV204 dead-metadata analysis runs once over all pipes together,
/// so a word written in the primary pipe and read in the annex counts as
/// live.
pub fn check_deployment(cfg: &ParkConfig) -> Vec<Report> {
    let switch = match build_switch(cfg) {
        Ok((switch, _handles)) => switch,
        Err(e) => return vec![build_failure(&e)],
    };

    let mut reports = Vec::new();
    let mut irs: Vec<ProgramIr> = Vec::new();
    for pipe_cfg in &cfg.pipes {
        let pipeline = switch.pipe(pipe_cfg.pipe);
        let ir = ProgramIr::from_pipeline(
            format!("park pipe {}", pipe_cfg.pipe),
            pipeline,
            pipeline.parser(),
        );
        let walk = dataflow::analyze(&ir);
        let mut diags = walk.diagnostics;
        diags.extend(locality::check_stage_locality(&ir));
        if let Some(annex) = pipe_cfg.annex_pipe {
            let annex_pipe = switch.pipe(annex);
            let mut annex_ir = ProgramIr::from_pipeline(
                format!("annex pipe {annex}"),
                annex_pipe,
                annex_pipe.parser(),
            );
            for (ch, facts) in &walk.recirc_exits {
                let port = cfg.chip.recirc_port(annex, *ch).0;
                annex_ir.entry.insert(port, facts.clone());
            }
            let annex_walk = dataflow::analyze(&annex_ir);
            let mut annex_diags = annex_walk.diagnostics;
            annex_diags.extend(locality::check_stage_locality(&annex_ir));
            reports.push(Report::new(annex_ir.name.clone(), annex_diags));
            irs.push(annex_ir);
        }
        reports.push(Report::new(ir.name.clone(), diags));
        irs.push(ir);
    }

    let meta = dataflow::meta_usage(&irs.iter().collect::<Vec<_>>());
    if !meta.is_empty() {
        reports.push(Report::new("deployment meta dataflow", meta));
    }
    reports.sort_by(|a, b| a.program.cmp(&b.program));
    reports
}

/// Verifies one store-backed switch exactly as the cluster tier builds
/// it: the Split/Merge program over a [`payloadpark::FlowStore`] of
/// `store_slots` slots with `cfg`'s slices at `bases`
/// ([`build_store_switch_with_bases`]), passes 1–3 plus dead-metadata
/// analysis on the parked pipe. Which store implementation backs the
/// table does not change the program, so an empty sparse one stands in.
pub fn check_store_deployment(cfg: &ParkConfig, bases: &[u32], store_slots: usize) -> Report {
    let store = shared(SlabStore::new(store_slots, cfg.primary_blocks));
    match build_store_switch_with_bases(cfg, bases, store) {
        Ok((switch, control)) => {
            let pipe = control.handles().pipe;
            let pipeline = switch.pipe(pipe);
            Report::new(format!("store pipe {pipe}"), crate::check(pipeline, pipeline.parser()))
        }
        Err(e) => build_failure(&e),
    }
}

fn build_failure(e: &BuildError) -> Report {
    Report::new("deployment", vec![Diagnostic::new(Code::PV002, None, e.to_string())])
}
