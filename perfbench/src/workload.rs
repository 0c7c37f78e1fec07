//! The four workloads: how each one builds, boots, loads, runs and checks
//! its machines. Host time is measured from outside, around each call into
//! a simulator crate's public API.

use std::time::Instant;

use jm_apps::{lcs, nqueens, radix, tsp};
use jm_asm::{hdr, Builder, Program};
use jm_bench::macrob::Problems;
use jm_bench::traffic as tb;
use jm_isa::instr::{AluOp, MsgPriority};
use jm_isa::node::{MeshDims, NodeId};
use jm_isa::operand::{MemRef, Special};
use jm_isa::reg::{AReg::*, DReg::*};
use jm_machine::{
    Engine, JMachine, MachineConfig, MachineError, MachineStats, StartPolicy, TraceConfig,
    TrafficPattern, TrafficSpec,
};
use jm_prng::Prng;
use jm_runtime::nnr;
use jm_trace::{Breakdown, Fnv1a};

/// Cycle budget of one application run (the Fig 5 harness's limit).
const APP_MAX_CYCLES: u64 = 4_000_000_000;
/// Nodes of the application machine (4×4×4).
const APP_NODES: u32 = 64;
/// Fixed window of the exchange loop, in simulated cycles.
const EXCHANGE_CYCLES: u64 = 20_000;
/// Full circulations of the ring token.
const RING_ROUNDS: i32 = 1000;
/// Offered traffic load: the 512-node knee of uniform random traffic.
const TRAFFIC_LOAD_PPM: u32 = 200_000;
/// Injection window of the traffic workload, in simulated cycles.
const TRAFFIC_CYCLES: u64 = 20_000;
/// Traffic seed used when no `--seed` is given (`traffic_sweep`'s default).
const TRAFFIC_DEFAULT_SEED: u64 = 7;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LCS, RadixSort, NQueens and TSP on 64 nodes (Fig 5/6).
    Apps64,
    /// The Fig 3 exchange loop on the 512-node prototype, fixed window.
    Exchange512,
    /// Uniform random traffic at the knee on 512 nodes, run to quiescence.
    Traffic512,
    /// One token circulating a 512-node ring.
    Ring512,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Apps64,
        Workload::Exchange512,
        Workload::Traffic512,
        Workload::Ring512,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Apps64 => "apps64",
            Workload::Exchange512 => "exchange512",
            Workload::Traffic512 => "traffic512",
            Workload::Ring512 => "ring512",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine of the timed pass: the crew for the exchange loop, the event
    /// engine everywhere else.
    pub fn engine(self, threads: u32) -> Engine {
        match self {
            Workload::Exchange512 => Engine::Parallel(threads),
            _ => Engine::Event,
        }
    }

    /// The machines one repetition runs. LCS strings, radix keys, the TSP
    /// matrix and the traffic seed come from `seed`; without one, the
    /// evaluation's own inputs are used. NQueens, the exchange loop and the
    /// ring have fixed inputs.
    pub fn jobs(self, seed: Option<u64>) -> Vec<Job> {
        let derive = |label: &str, default: u64| {
            seed.map_or(default, |s| Prng::from_label(label, s).next_u64())
        };
        match self {
            Workload::Apps64 => {
                let mut p = Problems::evaluation();
                p.lcs.seed = derive("lcs", p.lcs.seed);
                p.radix.seed = derive("radix", p.radix.seed);
                p.tsp.seed = derive("tsp", p.tsp.seed);
                vec![
                    Job::Lcs(p.lcs),
                    Job::Radix(p.radix),
                    Job::NQueens(p.nqueens),
                    Job::Tsp(p.tsp),
                ]
            }
            Workload::Exchange512 => vec![Job::Exchange],
            Workload::Traffic512 => vec![Job::Traffic(derive("traffic", TRAFFIC_DEFAULT_SEED))],
            Workload::Ring512 => vec![Job::Ring],
        }
    }
}

/// One machine run of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// Longest Common Subsequence.
    Lcs(lcs::LcsConfig),
    /// Radix sort.
    Radix(radix::RadixConfig),
    /// N-Queens.
    NQueens(nqueens::NqConfig),
    /// Traveling Salesperson.
    Tsp(tsp::TspConfig),
    /// The Fig 3 exchange loop.
    Exchange,
    /// Uniform random traffic with this injection seed.
    Traffic(u64),
    /// The token ring.
    Ring,
}

/// When a machine run ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At quiescence; more than this many cycles is a failure.
    Quiescent(u64),
    /// After exactly this many cycles.
    Window(u64),
}

impl Job {
    /// Simulated cycles per timed slice: about 10–50 ms of host time each,
    /// short enough that a quiet stretch of the host covers whole slices,
    /// long enough that the clock reads and each call's set-up are noise.
    pub fn slice_cycles(&self) -> u64 {
        match self {
            Job::Lcs(_) | Job::Radix(_) | Job::NQueens(_) | Job::Tsp(_) => 8192,
            Job::Exchange => 500,
            Job::Traffic(_) => 250,
            Job::Ring => 262_144,
        }
    }
}

/// How a pass configures its machines. No field changes what the machine
/// simulates, only how the host simulates or observes it.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Engine driving the clock.
    pub engine: Engine,
    /// Lifecycle tracing (Event engine only).
    pub traced: bool,
    /// Replay capture armed before the first host op.
    pub capture: bool,
    /// Wormhole bulk-advance fast path.
    pub bulk: bool,
}

impl Variant {
    /// The untraced, uncaptured configuration on `engine`.
    pub fn plain(engine: Engine) -> Variant {
        Variant {
            engine,
            traced: false,
            capture: false,
            bulk: true,
        }
    }
}

/// Host time and simulated results of one machine run.
#[derive(Debug, Clone, Default)]
pub struct JobOut {
    /// Nodes of the machine.
    pub nodes: u64,
    /// Program generation and assembly (jm-asm).
    pub asm_s: f64,
    /// `JMachine::try_new` (jm-machine).
    pub boot_s: f64,
    /// Host writes of the inputs into node memory.
    pub load_s: f64,
    /// The simulation, summed over its slices.
    pub run_s: f64,
    /// Host time of each slice of [`Job::slice_cycles`] simulated cycles,
    /// in simulation order. The same job cuts into the same slices on
    /// every repetition.
    pub slice_s: Vec<f64>,
    /// Machine statistics at the end of the run.
    pub stats: MachineStats,
    /// Deliveries refused by full queues, summed over nodes and priorities.
    pub queue_refusals: u64,
    /// Digest of every statistic and the final machine state.
    pub digest: u64,
    /// Message latency decomposition (traced runs only).
    pub breakdown: Option<Breakdown>,
    /// Size of the encoded replay log (captured runs only).
    pub log_bytes: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, reference {want:?}"))
    }
}

/// Runs one job under `v` and checks its outputs. A failed check or a
/// machine error is returned as `Err`, never a panic. Without `simulate`
/// the job stops after loading its inputs, so only set-up is timed.
pub fn run_job(job: &Job, v: Variant, simulate: bool) -> Result<JobOut, String> {
    let apps = MachineConfig::new(APP_NODES).start(StartPolicy::AllNodes);
    let slice = job.slice_cycles();
    match *job {
        Job::Lcs(cfg) => drive(
            v,
            simulate,
            slice,
            || (lcs::program(&cfg, APP_NODES), apps),
            |m| lcs::setup(m, &cfg),
            Stop::Quiescent(APP_MAX_CYCLES),
            |m, (a, b)| {
                let param = m.program().segment("lcs_p");
                let got = m.read_word(NodeId(APP_NODES - 1), param.base + 5).as_i32();
                expect_eq("LCS length", got as u32, lcs::reference(&a, &b))
            },
        ),
        Job::Radix(cfg) => drive(
            v,
            simulate,
            slice,
            || (radix::program(&cfg, APP_NODES), apps),
            |m| radix::setup(m, &cfg),
            Stop::Quiescent(APP_MAX_CYCLES),
            |m, keys| {
                if radix::result(m, &cfg) == radix::reference(&keys) {
                    Ok(())
                } else {
                    Err("radix: output differs from the host sort".to_string())
                }
            },
        ),
        Job::NQueens(cfg) => drive(
            v,
            simulate,
            slice,
            || (nqueens::program(&cfg, APP_NODES), apps),
            |_| (),
            Stop::Quiescent(APP_MAX_CYCLES),
            |m, ()| {
                let param = m.program().segment("nq_p");
                let word = |i| m.read_word(NodeId(0), param.base + i).as_i32();
                expect_eq("NQueens finished flag", word(6), 1)?;
                expect_eq(
                    "NQueens solutions",
                    word(3) as u64,
                    nqueens::reference(cfg.n),
                )
            },
        ),
        Job::Tsp(cfg) => drive(
            v,
            simulate,
            slice,
            || (tsp::program(&cfg, APP_NODES), apps),
            |m| tsp::setup(m, &cfg),
            Stop::Quiescent(APP_MAX_CYCLES),
            |m, matrix| {
                let param = m.program().segment("tsp_p");
                let best = m.program().segment("tsp_best");
                expect_eq(
                    "TSP finished flag",
                    m.read_word(NodeId(0), param.base + 4).as_i32(),
                    1,
                )?;
                let got = m.read_word(NodeId(0), best.base).as_i32() as u32;
                expect_eq("TSP tour cost", got, tsp::reference(&matrix, cfg.cities))
            },
        ),
        Job::Exchange => drive(
            v,
            simulate,
            slice,
            || {
                let config = MachineConfig::prototype_512().start(StartPolicy::AllNodes);
                (jm_bench::micro::load::debug_program(4, 20), config)
            },
            |_| (),
            Stop::Window(EXCHANGE_CYCLES),
            |m, ()| {
                let r = m.program().segment("f3_r");
                let idle = (0..m.node_count())
                    .filter(|&n| m.read_word(NodeId(n), r.base + 1).as_i32() == 0)
                    .count();
                expect_eq("exchange nodes with no completed exchange", idle, 0)
            },
        ),
        Job::Traffic(seed) => drive(
            v,
            simulate,
            slice,
            || {
                let program = tb::sink_program();
                let spec = TrafficSpec::new(seed)
                    .pattern(TrafficPattern::UniformRandom)
                    .load(TRAFFIC_LOAD_PPM)
                    .msg_words(tb::MSG_WORDS)
                    .window(0, TRAFFIC_CYCLES)
                    .handler(program.handler("sink"));
                let config = MachineConfig::with_dims(MeshDims::new(8, 8, 8))
                    .start(StartPolicy::None)
                    .traffic(spec);
                (program, config)
            },
            |_| (),
            Stop::Quiescent(tb::DRAIN_LIMIT),
            |m, ()| {
                let net = m.stats().net;
                let t = net.traffic;
                expect_eq(
                    "traffic offered",
                    t.offered_msgs,
                    t.accepted_msgs + t.dropped_msgs,
                )?;
                expect_eq("traffic delivered", net.delivered_msgs, t.accepted_msgs)
            },
        ),
        Job::Ring => drive(
            v,
            simulate,
            slice,
            || {
                let config = MachineConfig::new(512).start(StartPolicy::AllNodes);
                (ring_program(RING_ROUNDS), config)
            },
            |_| (),
            Stop::Quiescent(APP_MAX_CYCLES),
            |m, ()| {
                let acc = m.program().segment("acc");
                let sum: i64 = (0..m.node_count())
                    .map(|n| i64::from(m.read_word(NodeId(n), acc.base).as_i32()))
                    .sum();
                expect_eq(
                    "ring visits",
                    sum,
                    i64::from(m.node_count()) * i64::from(RING_ROUNDS),
                )
            },
        ),
    }
}

/// Builds, boots, loads, runs and checks one machine, timing each step.
/// The simulation is timed slice by slice, `slice` cycles at a time.
fn drive<L>(
    v: Variant,
    simulate: bool,
    slice: u64,
    build: impl FnOnce() -> (Program, MachineConfig),
    load: impl FnOnce(&mut JMachine) -> L,
    stop: Stop,
    check: impl FnOnce(&JMachine, L) -> Result<(), String>,
) -> Result<JobOut, String> {
    let t = Instant::now();
    let (program, config) = build();
    let asm_s = secs(t);

    let mut config = config.engine(v.engine);
    config.net.bulk = v.bulk;
    if v.traced {
        config = config.trace(TraceConfig::on());
    }
    let t = Instant::now();
    let mut m = JMachine::try_new(program, config).map_err(|e| format!("boot: {e}"))?;
    let boot_s = secs(t);
    if v.capture {
        m.record_replay(jm_replay::DEFAULT_INTERVAL);
    }

    let t = Instant::now();
    let input = load(&mut m);
    let load_s = secs(t);
    if !simulate {
        return Ok(JobOut {
            nodes: u64::from(m.node_count()),
            asm_s,
            boot_s,
            load_s,
            ..JobOut::default()
        });
    }

    let slice_s = run_sliced(&mut m, stop, slice).map_err(|e| format!("run: {e}"))?;
    let run_s = slice_s.iter().sum();

    if let Some((node, err)) = m.node_errors().first() {
        return Err(format!("node {} error: {err:?}", node.0));
    }
    check(&m, input)?;

    let stats = m.stats();
    let queue_refusals = (0..m.node_count())
        .flat_map(|n| MsgPriority::ALL.map(|p| m.node(NodeId(n)).queue_refusals(p)))
        .sum();
    let digest = digest(&stats, queue_refusals, m.state_hash());
    let breakdown = m.take_trace().map(|t| t.breakdown());
    let log_bytes = m
        .finish_replay()
        .map_or(0, |log| log.to_bytes().len() as u64);
    Ok(JobOut {
        nodes: u64::from(m.node_count()),
        asm_s,
        boot_s,
        load_s,
        run_s,
        slice_s,
        stats,
        queue_refusals,
        digest,
        breakdown,
        log_bytes,
    })
}

/// Runs `m` to `stop`, at most `slice` cycles per call, and returns the
/// host time of each call. A run to quiescence is resumed after each
/// slice's budget runs out; it quiesces at the same cycle and in the same
/// state as one call would, because the machine checks its stop conditions
/// every cycle.
fn run_sliced(m: &mut JMachine, stop: Stop, slice: u64) -> Result<Vec<f64>, MachineError> {
    let start = m.cycle();
    let mut slice_s = Vec::new();
    loop {
        let t = Instant::now();
        let done = match stop {
            Stop::Window(cycles) => {
                m.run(slice.min(start + cycles - m.cycle()));
                m.cycle() >= start + cycles
            }
            Stop::Quiescent(max) => {
                let budget = slice.min(start + max - m.cycle());
                match m.run_until_quiescent(budget) {
                    Ok(_) => true,
                    Err(MachineError::Timeout { .. }) if m.cycle() < start + max => false,
                    Err(e) => return Err(e),
                }
            }
        };
        slice_s.push(secs(t));
        if done {
            return Ok(slice_s);
        }
    }
}

/// FNV-1a over every simulated statistic and the machine state hash.
/// Handler entries are folded in entry-point order, so the digest does not
/// depend on the order in which nodes first touched them.
fn digest(s: &MachineStats, queue_refusals: u64, state_hash: u64) -> u64 {
    let n = &s.nodes;
    let mut h = Fnv1a::new();
    let words = [
        s.cycles,
        n.instructions,
        n.threads,
        n.sends,
        n.send_faults,
        n.msgs_sent,
        n.msgs_received,
        n.xlates,
        n.xlate_misses,
        n.arrival_stalls,
        queue_refusals,
        state_hash,
    ];
    for w in words.iter().chain(&n.cycles).chain(&n.faults) {
        h.write_u64(*w);
    }
    let mut handlers: Vec<_> = n.handlers.iter().collect();
    handlers.sort_by_key(|(ip, _)| *ip);
    for (ip, hs) in handlers {
        for w in [u64::from(ip), hs.threads, hs.instructions, hs.msg_words] {
            h.write_u64(w);
        }
    }
    h.write(format!("{:?}", s.net).as_bytes());
    h.finish()
}

/// The `engine_perf` token ring: `rounds` full circulations of a single
/// message, each visit incrementing the visited node's `acc` word. A copy,
/// because the original is private to the `engine_perf` binary.
fn ring_program(rounds: i32) -> Program {
    let mut b = Builder::new();
    b.data("acc", jm_asm::Region::Imem, vec![jm_isa::Word::int(0)]);
    b.reserve("next_route", jm_asm::Region::Imem, 1);
    b.label("main");
    b.mov(R0, Special::Nid);
    b.addi(R0, R0, 1);
    b.alu(AluOp::Rem, R0, R0, Special::NNodes);
    b.call(nnr::NID_TO_ROUTE);
    b.load_seg(A0, "next_route");
    b.mov(MemRef::disp(A0, 0), R0);
    b.mov(R0, Special::Nid);
    b.bnz(R0, "main_done");
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
    b.assemble().expect("ring program assembles")
}
