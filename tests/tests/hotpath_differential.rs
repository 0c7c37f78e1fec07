//! Differential tests for the load-dominated hot path: the scheduler's
//! dense/sparse scan switch and the network's wormhole bulk-advance fast
//! path are pure performance mechanisms, so every observable — quiescence
//! cycle, full machine statistics (including fault counters), final memory,
//! and the lifecycle trace hash — must be bit-identical whichever mode is
//! forced and whether or not the bulk path is eligible.
//!
//! Three workload shapes bracket the mechanisms:
//!
//! * a single token circulating a ring (idle-dominated) — the network is
//!   empty at every send, so the bulk path engages on every hop;
//! * every node launching a token at once (load-dominated) — later sends
//!   arrive while a bulk message is still streaming, forcing the
//!   materialize-on-interference path that reconstructs buffered flits;
//! * the same storm under a seeded fault plan with a mid-run router-stall
//!   window — the bulk path must decline entirely (its closed-form timing
//!   law does not model blocked moves) and fall back to flit-by-flit
//!   advancement without double-counting any `FaultStats`.

use jm_asm::{hdr, Builder, Program};
use jm_isa::instr::{AluOp, MsgPriority};
use jm_isa::node::NodeId;
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_isa::word::Word;
use jm_machine::{
    Engine, FaultSpec, FaultWindow, JMachine, MachineConfig, MachineStats, StartPolicy,
};
use jm_net::ScanPolicy;
use jm_runtime::nnr;

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: Result<u64, String>,
    stats: MachineStats,
    memory: Vec<Vec<Word>>,
}

/// Runs `program` under `config` and records every observable.
fn observe(program: Program, config: MachineConfig, max_cycles: u64) -> Observation {
    let mut m = JMachine::new(program, config);
    let outcome = m
        .run_until_quiescent(max_cycles)
        .map_err(|e| format!("{e:?}"));
    let mut memory = Vec::new();
    for id in 0..m.node_count() {
        let node = m.node(NodeId(id));
        let mut words = Vec::new();
        for block in &m.program().data {
            words.extend(node.dump_mem(block.base, block.len));
        }
        memory.push(words);
    }
    Observation {
        outcome,
        stats: m.stats(),
        memory,
    }
}

/// Token-ring program. With `all_nodes` false only node 0 launches a token
/// (one message in flight at a time — the bulk path's home regime); with it
/// true every node launches one, so tokens stream past each other and any
/// in-progress bulk message is interrupted by new injections.
fn ring_program(rounds: i32, all_nodes: bool) -> Program {
    let mut b = Builder::new();
    b.data("acc", jm_asm::Region::Imem, vec![Word::int(0)]);
    b.reserve("next_route", jm_asm::Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "next_route");
    b.mov(MemRef::disp(A0, 0), R0);
    if !all_nodes {
        b.mov(R0, Special::Nid);
        b.bnz(R0, "main_done");
    }
    b.mov(R1, Special::NNodes);
    b.alu(AluOp::Mul, R1, R1, rounds);
    b.load_seg(A1, "next_route");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("token", 2), R1);
    b.label("main_done");
    b.suspend();
    b.label("token");
    b.mov(R1, MemRef::disp(A3, 1));
    b.load_seg(A0, "acc");
    b.mov(R2, MemRef::disp(A0, 0));
    b.addi(R2, R2, 1);
    b.mov(MemRef::disp(A0, 0), R2);
    b.subi(R1, R1, 1);
    b.bz(R1, "token_done");
    b.load_seg(A1, "next_route");
    b.send(MsgPriority::P0, MemRef::disp(A1, 0));
    b.send2e(MsgPriority::P0, hdr("token", 2), R1);
    b.label("token_done");
    b.suspend();
    b.entry("main");
    nnr::install(&mut b);
    b.assemble().unwrap()
}

fn base_config(nodes: u32) -> MachineConfig {
    MachineConfig::new(nodes).start(StartPolicy::AllNodes)
}

/// The scan-policy switch (event-driven active-set vs dense full-scan) is
/// a scheduling strategy, not a semantic: forcing either extreme must
/// reproduce the adaptive run and the naive reference bit for bit, on the
/// serial event engine and on real sharded workers. The machine runs the
/// policy the config asked for and reports it back unchanged.
#[test]
fn scan_policies_bit_identical() {
    let nodes = 64; // single 64-node shard: over the dense-mode floor
    let max = 1_000_000;
    let baseline = observe(ring_program(2, true), base_config(nodes), max);
    let variants: &[(Engine, ScanPolicy)] = &[
        (Engine::Naive, ScanPolicy::ForcedDense),
        (Engine::Event, ScanPolicy::Auto),
        (Engine::Event, ScanPolicy::ForcedSparse),
        (Engine::Event, ScanPolicy::ForcedDense),
        (Engine::Parallel(2), ScanPolicy::Auto),
        (Engine::Parallel(2), ScanPolicy::ForcedDense),
        (Engine::Parallel(4), ScanPolicy::ForcedSparse),
    ];
    for &(engine, scan) in variants {
        let mut config = base_config(nodes).engine(engine);
        config.net.scan = scan;
        let m = JMachine::new(ring_program(2, true), config);
        assert_eq!(m.config().net.scan, scan, "{engine:?} overwrote net.scan");
        let got = observe(ring_program(2, true), config, max);
        assert_eq!(baseline, got, "{engine:?}/{scan:?} diverged from baseline");
    }
}

/// One token, empty network at every send: the bulk fast path engages on
/// every hop. Disabling it must change nothing observable.
#[test]
fn bulk_advance_bit_identical_when_engaged() {
    let nodes = 16;
    let max = 1_000_000;
    for engine in [Engine::Naive, Engine::Event] {
        let mut off = base_config(nodes).engine(engine);
        off.net.bulk = false;
        let with_bulk = observe(
            ring_program(3, false),
            base_config(nodes).engine(engine),
            max,
        );
        let without = observe(ring_program(3, false), off, max);
        assert_eq!(with_bulk, without, "{engine:?}: bulk on/off diverged");
    }
}

/// All nodes inject at once: a committed bulk message is still streaming
/// when the next send arrives, so the shard must materialize the in-flight
/// flits back into the channel arena at their law-given positions before
/// the new traffic contends with them.
#[test]
fn bulk_interference_materializes_exactly() {
    let nodes = 16;
    let max = 1_000_000;
    for engine in [Engine::Naive, Engine::Event] {
        let mut off = base_config(nodes).engine(engine);
        off.net.bulk = false;
        let with_bulk = observe(
            ring_program(3, true),
            base_config(nodes).engine(engine),
            max,
        );
        let without = observe(ring_program(3, true), off, max);
        assert_eq!(with_bulk, without, "{engine:?}: interference run diverged");
    }
    // And the storm itself must match the naive reference on every engine
    // (the parallel engine shards the mesh, so it never takes the bulk
    // path — agreement proves the closed-form timing law exact).
    let baseline = observe(ring_program(3, true), base_config(nodes), max);
    for engine in [Engine::Event, Engine::Parallel(2), Engine::Parallel(4)] {
        let got = observe(
            ring_program(3, true),
            base_config(nodes).engine(engine),
            max,
        );
        assert_eq!(baseline, got, "{engine:?} diverged from naive");
    }
}

/// A mid-run router stall plus flaky links: the bulk path's preconditions
/// fail (a fault plan is armed), so every flit moves the slow way. Bulk
/// on/off must agree on everything — including `FaultStats`, proving no
/// blocked move or inject stall is counted twice — and the plan must have
/// actually fired, or the test is vacuous.
#[test]
fn bulk_declines_under_fault_windows() {
    let nodes = 16;
    let max = 1_000_000;
    let spec = FaultSpec::new(11)
        .flaky(5_000)
        .window(FaultWindow::router_stall(5, 40, 400));
    for engine in [Engine::Naive, Engine::Event] {
        let mut off = base_config(nodes).engine(engine).fault(spec);
        off.net.bulk = false;
        let with_bulk = observe(
            ring_program(3, true),
            base_config(nodes).engine(engine).fault(spec),
            max,
        );
        let without = observe(ring_program(3, true), off, max);
        assert_eq!(with_bulk, without, "{engine:?}: faulted run diverged");
        assert!(
            with_bulk.stats.net.faults.blocked_moves > 0,
            "{engine:?}: fault plan never fired — the differential is vacuous"
        );
    }
}

/// Lifecycle tracing observes individual flit hops and deliveries; the bulk
/// path synthesizes those events per cycle from its timing law instead of
/// from buffer moves, and the two streams must hash identically.
#[test]
fn bulk_trace_hash_identical() {
    let nodes = 16;
    let max = 1_000_000;
    let run = |bulk: bool| {
        let mut config = base_config(nodes).engine(Engine::Event).traced();
        config.net.bulk = bulk;
        let mut m = JMachine::new(ring_program(3, false), config);
        let cycles = m.run_until_quiescent(max).expect("ring quiesces");
        let trace = m.take_trace().expect("tracing was enabled");
        (cycles, m.stats(), jm_trace::hash(&trace))
    };
    let (cycles_on, stats_on, hash_on) = run(true);
    let (cycles_off, stats_off, hash_off) = run(false);
    assert_eq!(cycles_on, cycles_off, "quiescence cycle diverged");
    assert_eq!(stats_on, stats_off, "statistics diverged");
    assert_eq!(hash_on, hash_off, "trace hash diverged");
}
