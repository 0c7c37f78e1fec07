//! Replay capture and re-execution for [`JMachine`].
//!
//! This module is `jm-machine`'s half of the deterministic-replay story
//! (the format and the engine-agnostic verify/bisect algorithms live in
//! `jm-replay`, below this crate in the dependency order):
//!
//! * **Recording.** A capturing machine logs every host-boundary input
//!   (vector installs, host message deliveries, memory pokes) stamped with
//!   the cycle it was applied at, plus a combined state hash
//!   ([`JMachine::state_hash`]) at every `interval`-cycle boundary. Runs
//!   are transparently chunked at those boundaries; the chunking is
//!   unobservable in simulated state because every engine can stop on any
//!   exact cycle. Nothing else needs recording — given the config, the
//!   program, the fault spec, and the host inputs, every engine reproduces
//!   the run bit-identically (that is the repo's core invariant, and the
//!   hashes are how a violation is caught and localized).
//! * **Capture control.** Per machine, [`JMachine::record_replay`] /
//!   [`JMachine::finish_replay`]. Process-wide, [`capture_replay`] (or
//!   [`capture_replay_from_env`], reading `JM_REPLAY_CAPTURE` and
//!   `JM_REPLAY_INTERVAL`) arms every subsequently-built machine and
//!   writes each machine's log into the capture directory when it drops —
//!   this is how harness binaries capture replay artifacts from
//!   experiments they cannot individually instrument.
//! * **Re-execution.** [`MachineFactory`] implements
//!   `jm_replay::ExecFactory`: it rebuilds a machine from a log's recorded
//!   configuration — optionally overriding the engine, thread count,
//!   quantum, or scan policy, which is the whole point of cross-engine
//!   verification — and drives it with exact fixed-cycle runs. A
//!   [`Corruption`] can be attached to inject a deliberate, unrecorded
//!   single-word divergence at a chosen cycle; the CI acceptance test uses
//!   it to prove the bisector localizes a fault to the exact cycle and
//!   component.

use crate::config::{Engine, MachineConfig, StartPolicy};
use crate::machine::JMachine;
use jm_isa::consts::FaultKind;
use jm_isa::instr::MsgPriority;
use jm_isa::node::NodeId;
use jm_isa::word::Word;
use jm_net::ScanPolicy;
use jm_replay::{ComponentHash, HostOp, Record, RecordedConfig, ReplayLog};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-wide capture directive (see [`capture_replay`]).
struct Capture {
    dir: PathBuf,
    interval: u64,
    seq: AtomicU64,
}

static CAPTURE: OnceLock<Capture> = OnceLock::new();

/// Arms process-wide replay capture: every [`JMachine`] built after this
/// call records a replay log with hash boundaries every `interval` cycles
/// and writes it to `dir/replay-NNNN.jmrp` when the machine is dropped
/// (sequence numbers follow drop order). The first call wins; later calls
/// are ignored — like [`Engine::set_default`], this exists for harness
/// binaries that must capture an entire experiment suite without plumbing
/// a parameter through every experiment's API.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub fn capture_replay(dir: impl Into<PathBuf>, interval: u64) {
    assert!(interval > 0, "replay interval must be positive");
    let dir = dir.into();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "jm-machine: warning: cannot create replay capture dir {}: {e}",
            dir.display()
        );
    }
    let _ = CAPTURE.set(Capture {
        dir,
        interval,
        seq: AtomicU64::new(0),
    });
}

/// Arms [`capture_replay`] from the environment: `JM_REPLAY_CAPTURE` names
/// the capture directory (unset or empty leaves capture off) and
/// `JM_REPLAY_INTERVAL` optionally overrides the boundary spacing
/// (default [`jm_replay::DEFAULT_INTERVAL`]). Returns whether capture was
/// armed. Harness binaries call this at startup so CI can flip capture on
/// without new flags.
pub fn capture_replay_from_env() -> bool {
    match std::env::var("JM_REPLAY_CAPTURE") {
        Ok(dir) if !dir.is_empty() => {
            let interval = std::env::var("JM_REPLAY_INTERVAL")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&i| i > 0)
                .unwrap_or(jm_replay::DEFAULT_INTERVAL);
            capture_replay(dir, interval);
            true
        }
        _ => false,
    }
}

/// Per-machine recording state (attached to a [`JMachine`] while it is
/// capturing).
pub(crate) struct Recorder {
    /// Hash-boundary spacing in cycles.
    pub(crate) interval: u64,
    /// Whether the drop handler writes the log into the process-wide
    /// capture directory (global capture) or an explicit
    /// [`JMachine::finish_replay`] is expected (per-machine capture).
    pub(crate) autosave: bool,
    /// Ops and checkpoints accumulated so far, in order.
    pub(crate) records: Vec<Record>,
}

impl Recorder {
    /// A recorder for a freshly-built machine when process-wide capture is
    /// armed, else `None`.
    pub(crate) fn from_capture() -> Option<Recorder> {
        CAPTURE.get().map(|c| Recorder {
            interval: c.interval,
            autosave: true,
            records: Vec::new(),
        })
    }
}

/// First interval boundary strictly after `cycle`.
fn next_boundary(cycle: u64, interval: u64) -> u64 {
    (cycle / interval + 1).saturating_mul(interval)
}

impl JMachine {
    /// Starts capturing a replay log on this machine, with a state-hash
    /// checkpoint every `interval` cycles ([`jm_replay::DEFAULT_INTERVAL`]
    /// is the tuned default). Call before any host op — recording starts
    /// empty. [`Self::finish_replay`] collects the log.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or the machine has already run.
    pub fn record_replay(&mut self, interval: u64) {
        assert!(interval > 0, "replay interval must be positive");
        assert_eq!(
            self.cycle(),
            0,
            "replay capture must start on an unrun machine"
        );
        self.recorder = Some(Recorder {
            interval,
            autosave: false,
            records: Vec::new(),
        });
    }

    /// Stops capturing and returns the finished log (with a final `End`
    /// checkpoint at the current cycle), or `None` if the machine was not
    /// recording.
    pub fn finish_replay(&mut self) -> Option<ReplayLog> {
        self.recorder.as_ref()?;
        let cycle = self.cycle();
        let hash = self.state_hash();
        let rec = self.recorder.take().expect("checked above");
        let mut records = rec.records;
        records.push(Record::End { cycle, hash });
        Some(ReplayLog {
            config: recorded_config(self.config()),
            fault: self.config().fault,
            traffic: self.config().traffic,
            interval: rec.interval,
            program: self.program().clone(),
            records,
        })
    }

    /// Records one host-boundary op at the current cycle (no-op unless
    /// capturing).
    pub(crate) fn record_op(&mut self, op: HostOp) {
        if self.recorder.is_none() {
            return;
        }
        let cycle = self.cycle();
        self.recorder
            .as_mut()
            .expect("checked above")
            .records
            .push(Record::Op { cycle, op });
    }

    /// Records a state-hash checkpoint at the current cycle.
    fn record_boundary(&mut self) {
        let cycle = self.cycle();
        let hash = self.state_hash();
        if let Some(r) = self.recorder.as_mut() {
            r.records.push(Record::Boundary { cycle, hash });
        }
    }

    /// [`Self::run`] while capturing: the same fixed drive, chunked at
    /// hash boundaries. Exactness of per-chunk deadlines (every engine
    /// stops on the exact cycle asked for) makes the chunking unobservable
    /// in simulated state.
    pub(crate) fn run_recorded(&mut self, cycles: u64) {
        let deadline = self.cycle().saturating_add(cycles);
        while self.cycle() < deadline {
            let interval = self.recorder.as_ref().expect("recording").interval;
            let boundary = next_boundary(self.cycle(), interval).min(deadline);
            self.run_inner(boundary - self.cycle());
            if self.cycle().is_multiple_of(interval) {
                self.record_boundary();
            }
        }
    }

    /// [`Self::run_until_quiescent`] while capturing: the inner drive runs
    /// with per-chunk budgets ending at hash boundaries; a chunk that
    /// "times out" at a boundary short of the real budget records a
    /// checkpoint and continues. Error, quiescence, and real-timeout
    /// classification are unchanged — the inner loop checks them every
    /// cycle exactly as the unrecorded path does.
    pub(crate) fn run_until_quiescent_recorded(
        &mut self,
        max_cycles: u64,
    ) -> Result<u64, crate::MachineError> {
        let start = self.cycle();
        let deadline = start.saturating_add(max_cycles);
        loop {
            let interval = self.recorder.as_ref().expect("recording").interval;
            let boundary = next_boundary(self.cycle(), interval).min(deadline);
            match self.run_until_quiescent_inner(boundary - self.cycle()) {
                Ok(_) => return Ok(self.cycle() - start),
                Err(crate::MachineError::Timeout {
                    busy_nodes,
                    in_flight,
                    ..
                }) => {
                    debug_assert_eq!(self.cycle(), boundary, "inner drive overshot its chunk");
                    if self.cycle() >= deadline {
                        return Err(crate::MachineError::Timeout {
                            cycles: self.cycle() - start,
                            busy_nodes,
                            in_flight,
                        });
                    }
                    self.record_boundary();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for JMachine {
    /// Globally-captured machines write their log on drop — this is what
    /// lets harness binaries capture experiments they cannot individually
    /// instrument, and what preserves a partial log (no `End` record) when
    /// a run dies mid-flight.
    fn drop(&mut self) {
        if std::thread::panicking() || !self.recorder.as_ref().is_some_and(|r| r.autosave) {
            return;
        }
        let Some(log) = self.finish_replay() else {
            return;
        };
        let Some(cap) = CAPTURE.get() else { return };
        let n = cap.seq.fetch_add(1, Ordering::Relaxed);
        let path = cap.dir.join(format!("replay-{n:04}.jmrp"));
        if let Err(e) = log.write_file(&path) {
            eprintln!(
                "jm-machine: warning: failed to write replay log {}: {e}",
                path.display()
            );
        }
    }
}

/// [`MachineConfig`] → the log header's engine-portable subset.
fn recorded_config(c: &MachineConfig) -> RecordedConfig {
    let (engine, threads) = match c.engine {
        Engine::Naive => (0, 0),
        Engine::Event => (1, 0),
        Engine::Parallel(t) => (2, t),
    };
    RecordedConfig {
        dims: c.dims,
        start: match c.start {
            StartPolicy::Node0 => 0,
            StartPolicy::AllNodes => 1,
            StartPolicy::None => 2,
        },
        engine,
        threads,
        quantum: c.quantum,
        mdp: c.mdp,
        net: c.net,
    }
}

/// Reconstructs the [`MachineConfig`] a log was recorded under (tracing
/// off — it is observational and not part of the recorded run). This is
/// the configuration [`MachineFactory::recorded`] replays with;
/// out-of-range discriminants fall back to the defaults rather than
/// panicking on a hand-edited log.
pub fn recorded_machine_config(log: &ReplayLog) -> MachineConfig {
    let rc = &log.config;
    let mut cfg = MachineConfig::with_dims(rc.dims);
    cfg.mdp = rc.mdp;
    cfg.net = rc.net;
    cfg.start = match rc.start {
        1 => StartPolicy::AllNodes,
        2 => StartPolicy::None,
        _ => StartPolicy::Node0,
    };
    cfg.engine = match rc.engine {
        0 => Engine::Naive,
        2 => Engine::Parallel(rc.threads),
        _ => Engine::Event,
    };
    cfg.quantum = rc.quantum;
    cfg.fault = log.fault;
    cfg.traffic = log.traffic;
    cfg
}

/// A deliberate, *unrecorded* single-word memory write injected into a
/// replayed execution: the machine's state at `cycle` (and after) differs
/// from an uncorrupted replay by exactly this write, so bisection must
/// localize the divergence to `cycle` and component `node N mem`. This is
/// the test fixture that proves the bisector's localization claim
/// end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// Cycle the write lands at (state *at* this cycle already differs).
    /// Must be at least 1 — the executions agree at cycle 0 by
    /// construction.
    pub cycle: u64,
    /// Target node.
    pub node: NodeId,
    /// Word address written.
    pub addr: u32,
    /// Value written.
    pub word: Word,
}

/// Builds [`JMachine`]-backed executions of a replay log
/// (`jm_replay::ExecFactory`). The default replays under the *recorded*
/// configuration; the builder methods override the engine (with thread
/// count), quantum, or scan policy — the cross-engine axes the replay
/// machinery exists to compare — and optionally attach a [`Corruption`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineFactory {
    engine: Option<Engine>,
    quantum: Option<u32>,
    scan: Option<ScanPolicy>,
    corruption: Option<Corruption>,
}

impl MachineFactory {
    /// Replays under exactly the recorded configuration.
    pub fn recorded() -> MachineFactory {
        MachineFactory::default()
    }

    /// Overrides the engine (builder style).
    pub fn engine(mut self, engine: Engine) -> MachineFactory {
        self.engine = Some(engine);
        self
    }

    /// Overrides the parallel-engine quantum (builder style).
    pub fn quantum(mut self, quantum: u32) -> MachineFactory {
        self.quantum = Some(quantum);
        self
    }

    /// Overrides the scan policy of the network and the node scheduler
    /// (builder style).
    pub fn scan(mut self, scan: ScanPolicy) -> MachineFactory {
        self.scan = Some(scan);
        self
    }

    /// Injects an unrecorded memory corruption into every execution this
    /// factory builds (builder style).
    pub fn corrupt(mut self, corruption: Corruption) -> MachineFactory {
        self.corruption = Some(corruption);
        self
    }
}

impl jm_replay::ExecFactory for MachineFactory {
    fn build(&self, log: &ReplayLog) -> Box<dyn jm_replay::Execution> {
        let mut cfg = recorded_machine_config(log);
        if let Some(e) = self.engine {
            cfg.engine = e;
        }
        if let Some(q) = self.quantum {
            cfg.quantum = q;
        }
        if let Some(s) = self.scan {
            cfg.net.scan = s;
        }
        let mut m = JMachine::new(log.program.clone(), cfg);
        // A replayed machine never re-captures, even under global capture.
        m.recorder = None;
        Box::new(MachineReplayer {
            m,
            corruption: self.corruption,
        })
    }
}

/// `FaultKind` from its recorded discriminant.
///
/// # Panics
///
/// Panics on an out-of-range discriminant (a corrupt log body).
fn fault_kind(bits: u8) -> FaultKind {
    FaultKind::ALL[bits as usize]
}

/// A [`JMachine`] being driven through a replay log: implements
/// `jm_replay::Execution` with exact fixed-cycle drives (all engines stop
/// on the exact cycle asked for, which is what makes single-cycle
/// bisection probes meaningful).
pub struct MachineReplayer {
    m: JMachine,
    corruption: Option<Corruption>,
}

impl MachineReplayer {
    /// The underlying machine (for stats or memory inspection after a
    /// replay).
    pub fn machine(&self) -> &JMachine {
        &self.m
    }
}

impl jm_replay::Execution for MachineReplayer {
    fn cycle(&self) -> u64 {
        self.m.cycle()
    }

    fn advance_to(&mut self, cycle: u64) {
        if let Some(c) = self.corruption {
            if self.m.cycle() < c.cycle && cycle >= c.cycle {
                self.m.run_inner(c.cycle - self.m.cycle());
                self.m.node_mut(c.node).write_mem(c.addr, c.word);
            }
        }
        if cycle > self.m.cycle() {
            self.m.run_inner(cycle - self.m.cycle());
        }
    }

    fn apply(&mut self, op: &HostOp) {
        match op {
            HostOp::InstallVectorAll { kind, ip } => {
                let kind = fault_kind(*kind);
                for i in 0..self.m.node_count() {
                    self.m.node_mut(NodeId(i)).install_vector(kind, *ip);
                }
            }
            HostOp::InstallVector { node, kind, ip } => {
                self.m
                    .node_mut(NodeId(*node))
                    .install_vector(fault_kind(*kind), *ip);
            }
            HostOp::Deliver {
                node,
                priority,
                words,
            } => {
                let priority = MsgPriority::ALL[*priority as usize];
                self.m.deliver_words(NodeId(*node), priority, words);
            }
            HostOp::WriteWord { node, addr, word } => {
                self.m.node_mut(NodeId(*node)).write_mem(*addr, *word);
            }
        }
    }

    fn state_hash(&mut self) -> u64 {
        self.m.state_hash()
    }

    fn component_hashes(&mut self) -> Vec<ComponentHash> {
        self.m.component_hashes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_asm::{hdr, Builder, Region};
    use jm_isa::operand::{MemRef, Special};
    use jm_isa::reg::AReg::*;
    use jm_isa::reg::DReg::*;
    use jm_isa::tag::Tag;
    use jm_replay::Divergence;

    /// Node 0 ping-pongs a counter with the last node `rounds` times, then
    /// stores it — enough traffic to keep routers and queues busy across
    /// many hash boundaries.
    fn pingpong(rounds: i32) -> jm_asm::Program {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);
        b.label("main");
        b.movi(R0, 0x421); // (1,1,1) on a 2x2x2 mesh
        b.wtag(R0, R0, Tag::Route.bits() as i32);
        b.send(jm_isa::instr::MsgPriority::P0, R0);
        b.send2(jm_isa::instr::MsgPriority::P0, hdr("pong", 3), 0);
        b.sende(jm_isa::instr::MsgPriority::P0, Special::Nnr);
        b.suspend();

        b.label("pong");
        b.mov(R0, MemRef::disp(A3, 1));
        b.addi(R0, R0, 1);
        b.send(jm_isa::instr::MsgPriority::P0, MemRef::disp(A3, 2));
        b.send2e(jm_isa::instr::MsgPriority::P0, hdr("ping", 2), R0);
        b.suspend();

        b.label("ping");
        b.mov(R0, MemRef::disp(A3, 1));
        b.alu(jm_isa::instr::AluOp::Lt, R1, R0, rounds);
        b.bf(R1, "done");
        b.movi(R2, 0x421);
        b.wtag(R2, R2, Tag::Route.bits() as i32);
        b.send(jm_isa::instr::MsgPriority::P0, R2);
        b.send2(jm_isa::instr::MsgPriority::P0, hdr("pong", 3), R0);
        b.sende(jm_isa::instr::MsgPriority::P0, Special::Nnr);
        b.suspend();
        b.label("done");
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();

        b.entry("main");
        b.assemble().unwrap()
    }

    fn record(engine: Engine, interval: u64) -> ReplayLog {
        let cfg = MachineConfig::new(8).engine(engine);
        let mut m = JMachine::new(pingpong(40), cfg);
        m.record_replay(interval);
        m.run_until_quiescent(100_000).unwrap();
        let log = m.finish_replay().unwrap();
        assert!(m.finish_replay().is_none(), "finish is one-shot");
        log
    }

    #[test]
    fn recorded_run_verifies_under_other_engines() {
        let log = record(Engine::Event, 32);
        assert!(log.checkpoints() > 3, "expected several checkpoints");
        for f in [
            MachineFactory::recorded(),
            MachineFactory::recorded().engine(Engine::Naive),
            MachineFactory::recorded().engine(Engine::Parallel(2)),
            MachineFactory::recorded()
                .engine(Engine::Parallel(2))
                .quantum(1),
            MachineFactory::recorded().scan(ScanPolicy::ForcedDense),
        ] {
            let report = jm_replay::verify(&log, &f);
            assert!(report.clean(), "{f:?}: {report}");
            assert_eq!(report.checked as usize, log.checkpoints());
        }
    }

    #[test]
    fn log_round_trips_and_host_ops_replay() {
        // Exercise every op kind: per-node and all-node vector installs, a
        // host delivery, and a memory poke mid-run.
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 2);
        b.label("main");
        b.suspend();
        b.label("copy");
        b.mov(R0, MemRef::disp(A3, 1));
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        b.entry("main");
        let program = b.assemble().unwrap();
        let cfg = MachineConfig::new(8).start(StartPolicy::None);
        let mut m = JMachine::new(program, cfg);
        m.record_replay(16);
        m.install_vector_all(FaultKind::CFutRead, "copy");
        m.install_vector(NodeId(3), FaultKind::FutUse, "copy");
        m.deliver_message(NodeId(3), MsgPriority::P0, "copy", &[Word::int(9)]);
        m.run_until_quiescent(10_000).unwrap();
        m.write_word(NodeId(3), 0x200, Word::int(77));
        m.run(40);
        let log = m.finish_replay().unwrap();
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        let ops = log
            .records
            .iter()
            .filter(|r| matches!(r, Record::Op { .. }))
            .count();
        assert_eq!(ops, 4);
        let report = jm_replay::verify(&back, &MachineFactory::recorded().engine(Engine::Naive));
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn corruption_is_bisected_to_its_cycle_and_component() {
        let log = record(Engine::Event, 64);
        let end = log.end_cycle();
        assert!(end > 130, "run too short for a mid-run corruption: {end}");
        let at = 97; // deliberately not a checkpoint cycle
        let target = MachineFactory::recorded().corrupt(Corruption {
            cycle: at,
            node: NodeId(5),
            addr: 0x300,
            word: Word::int(123),
        });
        let report = jm_replay::bisect(&log, &MachineFactory::recorded(), &target);
        match &report.divergence {
            Divergence::Diverged {
                cycle, components, ..
            } => {
                assert_eq!(*cycle, at, "{report}");
                assert_eq!(components.len(), 1, "{report}");
                assert_eq!(components[0].label, "node 5 mem");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_checkpoint_is_named_as_log_mismatch() {
        let mut log = record(Engine::Event, 64);
        let cycle = log.corrupt_checkpoint(1).unwrap();
        let report = jm_replay::bisect(
            &log,
            &MachineFactory::recorded(),
            &MachineFactory::recorded().engine(Engine::Parallel(2)),
        );
        match &report.divergence {
            Divergence::LogMismatch { cycle: c, .. } => assert_eq!(*c, cycle, "{report}"),
            other => panic!("expected LogMismatch, got {other:?}"),
        }
    }

    #[test]
    fn capture_is_transparent() {
        // A captured run and an uncaptured run of the same config land on
        // identical cycle counts, stats, and memory.
        let run = |capture: bool| {
            let mut m = JMachine::new(pingpong(25), MachineConfig::new(8));
            if capture {
                m.record_replay(32);
            }
            let cycles = m.run_until_quiescent(100_000).unwrap();
            let out = m.program().segment("out");
            (cycles, m.stats(), m.read_word(NodeId(0), out.base))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn recorded_config_round_trips() {
        let spec = jm_fault::FaultSpec::new(3).flaky(100_000).checksums(true);
        let mut cfg = MachineConfig::new(8)
            .engine(Engine::Parallel(3))
            .quantum(17)
            .start(StartPolicy::AllNodes)
            .fault(spec);
        cfg.net.scan = ScanPolicy::ForcedDense;
        let mut m = JMachine::new(pingpong(4), cfg);
        m.record_replay(64);
        let log = m.finish_replay().unwrap();
        let back = recorded_machine_config(&log);
        assert_eq!(back.dims, cfg.dims);
        assert_eq!(back.engine, Engine::Parallel(3));
        assert_eq!(back.quantum, 17);
        assert_eq!(back.net.scan, ScanPolicy::ForcedDense);
        assert_eq!(back.start, StartPolicy::AllNodes);
        assert_eq!(back.fault, Some(spec));
    }

    #[test]
    fn traffic_run_records_its_spec_and_replays_clean() {
        // A machine driven purely by the synthetic-traffic generator has
        // no host ops at all — everything it does comes from the traffic
        // spec. If the log did not carry the spec, a replay would rebuild
        // a silent machine and diverge at the first injected message.
        let mut b = Builder::new();
        b.data("acc", Region::Imem, vec![Word::int(0)]);
        b.label("sink");
        b.load_seg(A0, "acc");
        b.mov(R0, MemRef::disp(A0, 0));
        b.mov(R1, MemRef::disp(A3, 1));
        b.alu(jm_isa::instr::AluOp::Add, R0, R0, R1);
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();
        let program = b.assemble().unwrap();
        let spec = crate::TrafficSpec::new(11)
            .pattern(crate::TrafficPattern::BitReversal)
            .load(200_000)
            .msg_words(3)
            .window(0, 300)
            .handler(program.handler("sink"));
        let cfg = MachineConfig::new(8).start(StartPolicy::None).traffic(spec);
        let mut m = JMachine::new(program, cfg);
        m.record_replay(64);
        m.run(300);
        m.run_until_quiescent(100_000).unwrap();
        let log = m.finish_replay().unwrap();
        assert_eq!(log.traffic, Some(spec));
        assert!(log.checkpoints() > 3, "expected several checkpoints");
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
        assert_eq!(recorded_machine_config(&log).traffic, Some(spec));
        for f in [
            MachineFactory::recorded(),
            MachineFactory::recorded().engine(Engine::Naive),
            MachineFactory::recorded()
                .engine(Engine::Parallel(2))
                .quantum(1),
        ] {
            let report = jm_replay::verify(&log, &f);
            assert!(report.clean(), "{f:?}: {report}");
            assert_eq!(report.checked as usize, log.checkpoints());
        }
    }
}
