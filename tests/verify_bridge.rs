//! Property bridge between the static verifier and the executor.
//!
//! `pp_verify` reasons about declared [`MatSummary`] dataflow, never about
//! the closures that actually run. This suite closes that gap from both
//! sides on randomly generated small programs whose closures and summaries
//! are derived from the *same* spec (so they agree by construction):
//!
//! - **clean ⇒ equivalent**: when the analyzer reports no error-severity
//!   findings, scalar [`Pipeline::execute`] and [`Pipeline::execute_batch`]
//!   must produce byte-identical PHVs, counters and register state;
//! - **dead ⇒ never fires**: any table the analyzer calls unreachable
//!   (PV201/PV202) must record zero gateway hits on a workload covering
//!   every port the program matches on;
//! - **flagged ⇒ rejected**: programs with a cross-stage stateful binding
//!   are flagged by pass 3 (PV302) *and* refused by
//!   [`pp_rmt::PipelineBuilder`] before anything executes;
//! - negative generators for each of the four passes: randomly placed
//!   invalid-header reads (PV101), shadowed tables (PV202), cross-stage
//!   register bindings (PV302) and overlapping shard slices (PV401) must
//!   always be caught.

use pp_netsim::check::forall;
use pp_netsim::{prop_assert, prop_assert_eq};
use pp_rmt::summary::{MatSummary, Req, Slot};
use pp_rmt::{ChipProfile, Mat, ParserConfig, Phv, PortId, ProgramError, RegisterSpec};
use pp_verify::ir::{MatIr, ParserIr, ProgramIr, RegIr};
use pp_verify::shard::{check_shards, ShardIr, SliceClaim, WorkerIr};
use pp_verify::{check, check_ir, Code, Severity};
use std::collections::BTreeMap;

/// Ports the random programs match on (and the workload covers).
const PORTS: u16 = 4;
/// Distinct per-MAT counter names (the builder wants `&'static str`).
const COUNTER_NAMES: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One random table: a port/flag gateway over a flag-set, meta-write and
/// register-bump action. Closures and summary are both derived from this.
#[derive(Debug, Clone, Copy)]
struct MatSpec {
    stage: usize,
    /// `Some(p)`: gateway requires `ingress_port == p`.
    port_gate: Option<u16>,
    /// `Some(f)`: gateway requires `meta[f] == 1` (the guard-flag idiom).
    flag_req: Option<u8>,
    /// `Some(f)`: action sets `meta[f] = 1`.
    set_flag: Option<u8>,
    /// `Some(w)`: action writes a spec-derived constant into `meta[w]`.
    write: Option<u8>,
    /// Bind a 4-cell register at this stage; the action bumps the cell
    /// selected by `ingress_port % 4`.
    stateful: bool,
}

fn specs_from_seed(seed: u64, n_mats: usize) -> Vec<MatSpec> {
    let mut s = seed;
    (0..n_mats)
        .map(|_| {
            let r = splitmix(&mut s);
            MatSpec {
                stage: (r % 3) as usize,
                port_gate: (r >> 2)
                    .is_multiple_of(2)
                    .then_some(((r >> 8) % u64::from(PORTS)) as u16),
                flag_req: (r >> 16).is_multiple_of(4).then_some(((r >> 18) % 4) as u8),
                set_flag: (r >> 24).is_multiple_of(3).then_some(((r >> 26) % 4) as u8),
                write: (r >> 32).is_multiple_of(2).then_some((4 + (r >> 34) % 4) as u8),
                stateful: (r >> 40).is_multiple_of(5),
            }
        })
        .collect()
}

fn summary_of(spec: &MatSpec) -> MatSummary {
    let mut s = match spec.port_gate {
        Some(p) => MatSummary::on_ports([p]),
        None => MatSummary::any_port(),
    };
    if let Some(f) = spec.flag_req {
        s = s.require(Req::MetaFlag(f));
    }
    if let Some(f) = spec.set_flag {
        s = s.sets_flag(f);
    }
    if let Some(w) = spec.write {
        s = s.writes(Slot::Meta(w));
    }
    s
}

/// Builds the runnable pipeline for `specs`. MAT `i`'s action also bumps
/// counter `i`, so gateway-hit counts are visible in the counter snapshot.
fn build(specs: &[MatSpec]) -> Result<pp_rmt::Pipeline, ProgramError> {
    let mut b = pp_rmt::Pipeline::builder(ChipProfile::default());
    for (i, spec) in specs.iter().enumerate() {
        let ctr = b.counter(COUNTER_NAMES[i]);
        let write_value = 0x100 + i as u32;
        let (port_gate, flag_req, set_flag, write) =
            (spec.port_gate, spec.flag_req, spec.set_flag, spec.write);
        let mut mat = Mat::builder(format!("mat{i}"))
            .gateway(move |p| {
                port_gate.is_none_or(|g| p.ingress_port == PortId(g))
                    && flag_req.is_none_or(|f| p.meta[f as usize] == 1)
            })
            .action(move |ctx| {
                if let Some(f) = set_flag {
                    ctx.phv.meta[f as usize] = 1;
                }
                if let Some(w) = write {
                    ctx.phv.meta[w as usize] = write_value;
                }
                if let Some(cell) = ctx.cell.as_deref_mut() {
                    let v = pp_rmt::register::cell::read_u32(cell);
                    pp_rmt::register::cell::write_u32(cell, v.wrapping_add(1));
                }
                ctx.counters[ctr] += 1;
            })
            .summary(summary_of(spec));
        if spec.stateful {
            let reg = b.register(RegisterSpec {
                name: format!("reg{i}"),
                stage: spec.stage,
                cell_bytes: 4,
                cells: 4,
            });
            mat = mat.stateful(reg, |p| Some(p.ingress_port.0 as usize % 4));
        }
        b.place(spec.stage, mat.build());
    }
    b.build()
}

/// The workload: several passes over every port the programs match on.
fn workload() -> Vec<Phv> {
    (0..PORTS * 5).map(|i| Phv { ingress_port: PortId(i % PORTS), ..Phv::default() }).collect()
}

/// clean ⇒ equivalent, and dead ⇒ never fires, on random programs.
#[test]
fn analyzer_clean_programs_execute_identically() {
    forall(
        "analyzer_clean_programs_execute_identically",
        32,
        |d| (d.any::<u64>(), d.range(1usize..7)),
        |(seed, n_mats)| {
            let specs = specs_from_seed(seed, n_mats);
            let parser = ParserConfig::l2_only();
            let mut scalar = build(&specs).expect("in-range spec builds");
            let diags = check(&scalar, &parser);
            let errors: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Error).collect();
            prop_assert!(errors.is_empty(), "meta-only programs must be error-free: {errors:?}");

            // Scalar reference run.
            let mut phvs_a = workload();
            for phv in phvs_a.iter_mut() {
                scalar.execute(phv);
            }

            // Batched run over a fresh pipeline built from the same specs.
            let mut batched = build(&specs).expect("same spec builds again");
            let mut phvs_b = workload();
            batched.execute_batch(&mut phvs_b);

            prop_assert_eq!(&phvs_a, &phvs_b, "PHVs diverged");
            prop_assert_eq!(scalar.counters(), batched.counters(), "counters diverged");
            prop_assert_eq!(scalar.packets_processed(), batched.packets_processed());
            for (r, spec) in scalar.registers().specs().iter().enumerate() {
                for cell in 0..spec.cells {
                    prop_assert_eq!(
                        scalar.registers().cell(pp_rmt::RegisterId(r), cell),
                        batched.registers().cell(pp_rmt::RegisterId(r), cell),
                        "register {} cell {} diverged",
                        spec.name,
                        cell
                    );
                }
            }

            // Soundness of the reachability pass: every table the analyzer
            // declared dead or shadowed must indeed never have fired.
            for d in &diags {
                if matches!(d.code, Code::PV201 | Code::PV202) {
                    let name = d.mat.as_deref().unwrap();
                    let hits: u64 = scalar
                        .stages()
                        .iter()
                        .flat_map(|s| s.mats())
                        .filter(|m| m.name() == name)
                        .map(|m| m.hits())
                        .sum();
                    prop_assert_eq!(hits, 0, "analyzer called {} unreachable but it fired", name);
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Negative generators: each pass must catch its randomly-placed defect.
// ---------------------------------------------------------------------

/// Hand-built program IR over one pp-parsing port (for defects the real
/// builder would refuse to construct, or that need parser control).
fn ir_on_pp_port(port: u16, stages: Vec<Vec<MatIr>>, registers: Vec<RegIr>) -> ProgramIr {
    ProgramIr {
        name: "bridge".into(),
        stages,
        registers,
        parser: ParserIr {
            pp_ports: [port].into_iter().collect(),
            block_ports: [port].into_iter().collect(),
            block_capacity: 2,
        },
        entry: BTreeMap::new(),
    }
}

fn plain_mat(name: &str, stage: usize, summary: MatSummary) -> MatIr {
    MatIr { name: name.into(), stage, summary: Some(summary), stateful: None }
}

/// Pass 1: a shim read on a port whose parser never produces a shim is
/// a PV101 error wherever the table lands.
#[test]
fn pass1_catches_invalid_header_reads() {
    forall(
        "pass1_catches_invalid_header_reads",
        16,
        |d| (d.range(0u16..8), d.range(8u16..16), d.range(0usize..3)),
        |(pp_port, read_port, stage)| {
            let bad =
                plain_mat("bad_read", stage, MatSummary::on_ports([read_port]).reads(Slot::Pp));
            let mut stages = vec![Vec::new(); stage + 1];
            stages[stage].push(bad);
            let diags = check_ir(&ir_on_pp_port(pp_port, stages, vec![]));
            let d = diags.iter().find(|d| d.code == Code::PV101).expect("PV101");
            prop_assert_eq!(d.severity, Severity::Error);
            prop_assert_eq!(d.mat.as_deref(), Some("bad_read"));
            Ok(())
        },
    );
}

/// Pass 2: an unconditional upstream strip shadows any later table that
/// requires the shim — PV202 names both parties, at any stage gap.
#[test]
fn pass2_catches_shadowed_tables() {
    forall(
        "pass2_catches_shadowed_tables",
        16,
        |d| (d.range(0u16..8), d.range(1usize..4)),
        |(port, gap)| {
            let strip = plain_mat(
                "stripper",
                0,
                MatSummary::on_ports([port]).require(Req::Valid(Slot::Pp)).sets_invalid(Slot::Pp),
            );
            let shadowed = plain_mat(
                "shadowed",
                gap,
                MatSummary::on_ports([port]).require(Req::Valid(Slot::Pp)),
            );
            let mut stages = vec![Vec::new(); gap + 1];
            stages[0].push(strip);
            stages[gap].push(shadowed);
            let diags = check_ir(&ir_on_pp_port(port, stages, vec![]));
            let d = diags.iter().find(|d| d.code == Code::PV202).expect("PV202");
            prop_assert_eq!(d.severity, Severity::Error);
            prop_assert_eq!(d.mat.as_deref(), Some("shadowed"));
            prop_assert!(d.message.contains("stripper"), "culprit named: {}", d.message);
            Ok(())
        },
    );
}

/// Pass 3: a stateful binding whose register lives in another stage is
/// flagged (PV302) *and* the builder refuses the program outright.
#[test]
fn pass3_flags_what_the_builder_rejects() {
    forall(
        "pass3_flags_what_the_builder_rejects",
        16,
        |d| (d.range(0usize..3), d.range(1usize..3)),
        |(mat_stage, offset)| {
            let reg_stage = mat_stage + offset;

            // The analyzer view.
            let rmw = MatIr {
                name: "rmw".into(),
                stage: mat_stage,
                summary: Some(MatSummary::any_port()),
                stateful: Some(0),
            };
            let mut stages = vec![Vec::new(); mat_stage + 1];
            stages[mat_stage].push(rmw);
            let ir =
                ir_on_pp_port(0, stages, vec![RegIr { name: "bank".into(), stage: reg_stage }]);
            prop_assert!(
                check_ir(&ir)
                    .iter()
                    .any(|d| d.code == Code::PV302 && d.severity == Severity::Error),
                "PV302 expected"
            );

            // The executor view: the same shape never gets to run.
            let mut b = pp_rmt::Pipeline::builder(ChipProfile::default());
            let reg = b.register(RegisterSpec {
                name: "bank".into(),
                stage: reg_stage,
                cell_bytes: 4,
                cells: 4,
            });
            b.place(mat_stage, Mat::builder("rmw").stateful(reg, |_| Some(0)).build());
            match b.build() {
                Err(ProgramError::CrossStageStatefulBinding {
                    mat,
                    mat_stage: m,
                    register_stage: r,
                }) => {
                    prop_assert_eq!(mat.as_str(), "rmw");
                    prop_assert_eq!(m, mat_stage);
                    prop_assert_eq!(r, reg_stage);
                }
                other => prop_assert!(false, "builder accepted a cross-stage binding: {other:?}"),
            }
            Ok(())
        },
    );
}

/// Pass 4: any overlap between two workers' slice ranges is a PV401
/// error, and shifting the second range past the first clears it.
#[test]
fn pass4_catches_overlapping_shards() {
    forall(
        "pass4_catches_overlapping_shards",
        16,
        |d| (d.range(1usize..64), d.range(1usize..32)),
        |(len, overlap)| {
            let overlap = overlap.min(len);
            let shard = |second_start: usize| ShardIr {
                total_slots: len + second_start.max(len),
                parent_ports: [0u16, 1].into_iter().collect(),
                parent_has_annex: false,
                workers: vec![
                    WorkerIr {
                        name: "w0".into(),
                        ports: [0u16].into_iter().collect(),
                        claims: vec![SliceClaim { name: "s0".into(), slots: 0..len }],
                    },
                    WorkerIr {
                        name: "w1".into(),
                        ports: [1u16].into_iter().collect(),
                        claims: vec![SliceClaim {
                            name: "s1".into(),
                            slots: second_start..second_start + len,
                        }],
                    },
                ],
                port_map: [(0u16, 0usize), (1u16, 1usize)].into_iter().collect(),
            };

            let diags = check_shards(&shard(len - overlap));
            prop_assert!(
                diags.iter().any(|d| d.code == Code::PV401 && d.severity == Severity::Error),
                "overlap of {overlap} slots missed: {diags:?}"
            );
            let disjoint = check_shards(&shard(len));
            prop_assert!(
                !disjoint.iter().any(|d| d.code == Code::PV401),
                "false positive on disjoint ranges: {disjoint:?}"
            );
            Ok(())
        },
    );
}
