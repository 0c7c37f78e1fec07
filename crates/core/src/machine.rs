//! The machine: nodes + network under one clock.
//!
//! Two engines drive that clock (see [`Engine`]): a naive reference that
//! scans every node and router each cycle, and the default event-driven
//! engine that tracks *where work is* — a wake-up heap for busy nodes, the
//! network's delivery notifications for queue pumping, and counters that
//! make quiescence an O(1) check. Both produce bit-identical observable
//! results; `DESIGN.md` ("Simulation engine scheduling") gives the
//! invariants and the cycle-exactness argument.

use crate::config::{Engine, MachineConfig, StartPolicy};
use crate::stats::MachineStats;
use jm_asm::Program;
use jm_fault::{checksum_words, FaultPlan};
use jm_isa::consts::FaultKind;
use jm_isa::instr::{MsgPriority, StatClass};
use jm_isa::node::NodeId;
use jm_isa::word::{MsgHeader, Word};
use jm_isa::TraceId;
use jm_mdp::{InjectAck, MdpNode, NetPort, NodeError};
use jm_net::{InjectResult, Network, ScanPolicy};
use jm_trace::{MachineTrace, SamplePoint};
use jm_traffic::TrafficPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// A machine-level failure.
#[derive(Debug, Clone)]
pub enum MachineError {
    /// One or more nodes stopped with an error.
    NodeErrors(Vec<(NodeId, NodeError)>),
    /// The cycle budget elapsed before quiescence.
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Nodes that still had work.
        busy_nodes: u32,
        /// Flits still in the network.
        in_flight: u64,
    },
    /// The machine quiesced but undelivered words remain queued at halted
    /// nodes (a protocol bug in the guest program).
    StrandedMessages {
        /// Nodes with stranded words.
        nodes: Vec<NodeId>,
    },
    /// The configuration asked for [`Engine::Parallel`] with lifecycle
    /// tracing enabled. Trace ids are injection ordinals from one global
    /// counter, which sharded injection does not maintain — run traced
    /// machines on [`Engine::Event`] (bit-identical).
    TraceUnsupportedUnderParallel,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NodeErrors(errors) => {
                write!(f, "{} node error(s):", errors.len())?;
                for (id, e) in errors.iter().take(4) {
                    write!(f, " [{id}: {e}]")?;
                }
                Ok(())
            }
            MachineError::Timeout {
                cycles,
                busy_nodes,
                in_flight,
            } => write!(
                f,
                "no quiescence after {cycles} cycles ({busy_nodes} busy nodes, {in_flight} flits in flight)"
            ),
            MachineError::StrandedMessages { nodes } => {
                write!(f, "messages stranded at {} halted node(s)", nodes.len())
            }
            MachineError::TraceUnsupportedUnderParallel => write!(
                f,
                "lifecycle tracing is unsupported under Engine::Parallel; use Engine::Event"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// Adapter giving one node's `SEND` instructions access to its injection
/// port.
struct Port<'a> {
    net: &'a mut Network,
    node: NodeId,
}

impl NetPort for Port<'_> {
    fn commit(&mut self, priority: MsgPriority, words: &[Word]) -> InjectAck {
        match self.net.commit_msg(self.node, priority, words) {
            InjectResult::Accepted => InjectAck::Accepted,
            InjectResult::Stall => InjectAck::Stall,
            InjectResult::BadRoute => InjectAck::Rejected,
        }
    }
}

/// Sentinel in `wake_at`: the node is parked (not in the wake heap).
pub(crate) const PARKED: u64 = u64::MAX;
/// Sentinel in `idle_since`: the node is not parked idle.
pub(crate) const NOT_IDLE: u64 = u64::MAX;

/// Which strategy the scheduler is currently using to find due nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanMode {
    /// Wake-up heap: O(log n) per transition, skips idle nodes entirely.
    Heap,
    /// Dense scan of `wake_at`: O(n) per cycle but no heap maintenance —
    /// cheaper when most nodes tick every cycle (the load-dominated regime).
    Dense,
}

/// A shard needs at least this many nodes before dense scanning can beat
/// the heap (below it the heap is tiny anyway).
const DENSE_MIN_NODES: usize = 16;

/// Event-engine bookkeeping for one shard's nodes: which need ticking and
/// when. The sequential event engine uses a single all-covering instance;
/// the parallel engine gives each shard its own, mirroring the network's
/// slab layout. Heap entries and method arguments use **global** node ids;
/// the per-node vectors are indexed locally (`id - base`).
///
/// Invariants (between steps), writing `l` for a node's local index:
/// * in [`ScanMode::Heap`], node `i` has exactly one heap entry iff
///   `wake_at[l] != PARKED`, and that entry is `(wake_at[l], i)`; in
///   [`ScanMode::Dense`] the heap is empty and `wake_at` alone is
///   authoritative (rebuilt into a heap on the down-switch);
/// * a parked node's `schedule()` decision is `Idle` or `Stopped`, so it
///   cannot make progress until a delivery arrives (which re-schedules it);
/// * `idle_since[l] != NOT_IDLE` iff the node is parked after an idle tick;
///   cycles `idle_since[l]..` are idle cycles the node has not yet been
///   credited for (repaid on wake-up, or virtually by [`JMachine::stats`]);
/// * `has_work[l]` mirrors `nodes[l].has_work()` and `work_count` counts
///   the `true` entries, making quiescence O(shards);
/// * `errored[l]`/`error_count` latch nodes that stopped with an error.
///
/// Both scan modes tick the same due set in the same (ascending id) order —
/// equal-cycle heap entries pop in id order, and the dense scan walks ids
/// ascending — so the mode, and when the auto policy switches it, is
/// unobservable in simulated state.
pub(crate) struct EventSched {
    /// First global node id this scheduler covers.
    base: usize,
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
    pub(crate) wake_at: Vec<u64>,
    pub(crate) idle_since: Vec<u64>,
    has_work: Vec<bool>,
    pub(crate) work_count: usize,
    errored: Vec<bool>,
    pub(crate) error_count: usize,
    /// Scratch for the pump's snapshot of nodes with pending deliveries.
    pub(crate) pump_scratch: Vec<u32>,
    /// Current advance strategy.
    pub(crate) mode: ScanMode,
    /// Switching policy (from [`MachineConfig::net`]'s `scan`).
    policy: ScanPolicy,
}

impl EventSched {
    /// Every node starts scheduled for cycle 0 — the first step ticks them
    /// all once, exactly like the naive engine, and the workless ones park.
    /// `nodes` is the covered slice (ids `base .. base + nodes.len()`).
    fn new(nodes: &[MdpNode], base: usize, policy: ScanPolicy) -> EventSched {
        let n = nodes.len();
        let has_work: Vec<bool> = nodes.iter().map(MdpNode::has_work).collect();
        let work_count = has_work.iter().filter(|&&w| w).count();
        let mode = match policy {
            ScanPolicy::ForcedDense => ScanMode::Dense,
            ScanPolicy::Auto | ScanPolicy::ForcedSparse => ScanMode::Heap,
        };
        EventSched {
            base,
            heap: match mode {
                ScanMode::Heap => (0..n).map(|i| Reverse((0, (base + i) as u32))).collect(),
                ScanMode::Dense => BinaryHeap::new(),
            },
            wake_at: vec![0; n],
            idle_since: vec![NOT_IDLE; n],
            has_work,
            work_count,
            errored: vec![false; n],
            error_count: 0,
            pump_scratch: Vec::new(),
            mode,
            policy,
        }
    }

    /// Enters a popped (or parked) node into the heap for cycle `at`.
    pub(crate) fn schedule(&mut self, i: usize, at: u64) {
        self.wake_at[i - self.base] = at;
        if self.mode == ScanMode::Heap {
            self.heap.push(Reverse((at, i as u32)));
        }
    }

    /// Occupancy feedback after a cycle that ticked `ticked` nodes: the
    /// auto policy switches to dense scanning when ≥ 5/8 of the shard's
    /// nodes ticked and back to the heap when ≤ 1/4 did. The wide gap is
    /// the hysteresis — a load sitting between the thresholds keeps
    /// whatever mode it is in.
    pub(crate) fn retune(&mut self, ticked: usize) {
        if self.policy != ScanPolicy::Auto {
            return;
        }
        let n = self.wake_at.len();
        match self.mode {
            ScanMode::Heap => {
                if n >= DENSE_MIN_NODES && ticked * 8 >= n * 5 {
                    self.mode = ScanMode::Dense;
                    // `wake_at` is authoritative from here on.
                    self.heap.clear();
                }
            }
            ScanMode::Dense => {
                if ticked * 4 <= n {
                    self.mode = ScanMode::Heap;
                    debug_assert!(self.heap.is_empty());
                    for (l, &at) in self.wake_at.iter().enumerate() {
                        if at != PARKED {
                            self.heap.push(Reverse((at, (self.base + l) as u32)));
                        }
                    }
                }
            }
        }
    }

    /// Wakes a parked node for cycle `at` (no-op if already scheduled),
    /// first repaying the idle cycles it skipped while parked.
    pub(crate) fn wake(&mut self, node: &mut MdpNode, at: u64) {
        let i = node.id().index();
        let l = i - self.base;
        if self.wake_at[l] != PARKED {
            return;
        }
        if self.idle_since[l] != NOT_IDLE {
            node.credit_idle(at - self.idle_since[l]);
            self.idle_since[l] = NOT_IDLE;
        }
        self.schedule(i, at);
    }

    /// Updates the cached `has_work` bit for (global) node `i`.
    pub(crate) fn set_work(&mut self, i: usize, work: bool) {
        let l = i - self.base;
        if self.has_work[l] != work {
            self.has_work[l] = work;
            if work {
                self.work_count += 1;
            } else {
                self.work_count -= 1;
            }
        }
    }

    /// Latches a node error (once).
    pub(crate) fn record_error(&mut self, i: usize) {
        let l = i - self.base;
        if !self.errored[l] {
            self.errored[l] = true;
            self.error_count += 1;
        }
    }

    /// Earliest scheduled wake-up, `u64::MAX` when every node is parked.
    /// O(1) on the heap; a linear scan in dense mode (`PARKED` is `u64::MAX`,
    /// so parked nodes never win the minimum).
    pub(crate) fn next_due(&self) -> u64 {
        match self.mode {
            ScanMode::Heap => self.heap.peek().map_or(u64::MAX, |&Reverse((c, _))| c),
            ScanMode::Dense => self.wake_at.iter().copied().min().unwrap_or(u64::MAX),
        }
    }
}

/// A simulated J-Machine.
pub struct JMachine {
    program: Arc<Program>,
    config: MachineConfig,
    nodes: Vec<MdpNode>,
    net: Network,
    cycle: u64,
    /// One scheduler per network shard (a single all-covering instance on
    /// the sequential engines), mirroring the network's slab layout.
    scheds: Vec<EventSched>,
    /// Periodic occupancy samples (tracing only).
    samples: Vec<SamplePoint>,
    /// Replay recorder: `Some` while this machine is capturing a replay log
    /// (see [`crate::replay`]). `None` on the hot path — every hook below
    /// is a single pointer test.
    pub(crate) recorder: Option<crate::replay::Recorder>,
}

impl fmt::Debug for JMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JMachine")
            .field("nodes", &self.nodes.len())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl JMachine {
    /// Boots a machine with `program` loaded on every node.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (assembled programs are
    /// always valid), or if the configuration is rejected (see
    /// [`JMachine::try_new`] for the fallible form).
    pub fn new(program: Program, config: MachineConfig) -> JMachine {
        JMachine::try_new(program, config).expect("invalid machine configuration")
    }

    /// Boots a machine with `program` loaded on every node, reporting
    /// configuration errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`MachineError::TraceUnsupportedUnderParallel`] when the config
    /// enables lifecycle tracing under [`Engine::Parallel`] — a benchmark
    /// that asked for the parallel engine must not silently measure a
    /// different one.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (assembled programs are
    /// always valid).
    pub fn try_new(program: Program, mut config: MachineConfig) -> Result<JMachine, MachineError> {
        program.validate().expect("invalid program image");
        if config.trace.enabled && matches!(config.engine, Engine::Parallel(_)) {
            // Trace ids are injection ordinals from one global counter,
            // which sharded injection does not maintain.
            return Err(MachineError::TraceUnsupportedUnderParallel);
        }
        // Canonicalize the fault plan: a vacuous spec is no plan at all, so
        // every fault hook below stays on its fault-free path.
        let fault = config.fault.and_then(FaultPlan::from_spec);
        config.mdp.checksum_msgs = fault.is_some_and(|p| p.checksums());
        // Same canonicalization for the synthetic-traffic plan.
        let traffic = config.traffic.and_then(TrafficPlan::from_spec);
        // Slab count for the parallel engine: about two z-slabs per worker,
        // but never finer than two z-planes per slab. Over-decomposing gives
        // the crew slack to balance activity — a worker whose home slab
        // went idle picks up a busy one — while `sharding_is_unobservable`
        // (jm-net) guarantees the cut cannot change results. The two-plane
        // grain floor matters on small meshes: one-plane slabs make *every*
        // z-hop a cross-slab mailbox crossing (on a 4×4×4 mesh that is all
        // of the z traffic), and the mailbox copies then eat the win; with
        // two planes per slab, alternate plane boundaries stay in-slab.
        let shards = match config.engine {
            Engine::Parallel(threads) if threads >= 2 => {
                let z = config.dims.z as usize;
                (2 * threads as usize).min(z / 2).max(1)
            }
            Engine::Parallel(_) | Engine::Event | Engine::Naive => 1,
        };
        let program = Arc::new(program);
        let mut nodes = config
            .dims
            .iter_nodes()
            .map(|id| {
                let start = match config.start {
                    StartPolicy::AllNodes => true,
                    StartPolicy::Node0 => id.0 == 0,
                    StartPolicy::None => false,
                };
                MdpNode::new(id, config.dims, Arc::clone(&program), config.mdp, start)
            })
            .collect::<Vec<_>>();
        let mut net = Network::with_shards(config.net, shards);
        net.set_fault_plan(fault);
        net.set_traffic_plan(traffic);
        if config.trace.enabled {
            net.set_tracing(true);
            for node in &mut nodes {
                node.set_tracing(true);
            }
        }
        let scheds = {
            let (parts, _) = net.shard_parts();
            parts
                .iter()
                .map(|s| {
                    EventSched::new(
                        &nodes[s.base()..s.base() + s.len()],
                        s.base(),
                        config.net.scan,
                    )
                })
                .collect()
        };
        Ok(JMachine {
            program,
            config,
            nodes,
            net,
            cycle: 0,
            scheds,
            samples: Vec::new(),
            recorder: crate::replay::Recorder::from_capture(),
        })
    }

    /// The loaded program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// A node, by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &MdpNode {
        &self.nodes[id.index()]
    }

    /// Mutable node access (host interface).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut MdpNode {
        &mut self.nodes[id.index()]
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Installs a fault vector on every node, resolving `handler` through
    /// the program's symbol table.
    ///
    /// # Panics
    ///
    /// Panics if the label is not a code symbol.
    pub fn install_vector_all(&mut self, kind: FaultKind, handler: &str) {
        let ip = self.program.handler(handler);
        self.record_op(jm_replay::HostOp::InstallVectorAll {
            kind: kind.vector() as u8,
            ip,
        });
        for node in &mut self.nodes {
            node.install_vector(kind, ip);
        }
    }

    /// Installs a fault vector on one node, resolving `handler` through the
    /// program's symbol table. The machine-level twin of
    /// [`MdpNode::install_vector`]; host harnesses should prefer this form —
    /// it is captured in replay logs, where direct node pokes are invisible.
    ///
    /// # Panics
    ///
    /// Panics if the label is not a code symbol or `node` is out of range.
    pub fn install_vector(&mut self, node: NodeId, kind: FaultKind, handler: &str) {
        let ip = self.program.handler(handler);
        self.record_op(jm_replay::HostOp::InstallVector {
            node: node.0,
            kind: kind.vector() as u8,
            ip,
        });
        self.nodes[node.index()].install_vector(kind, ip);
    }

    /// Host interface: delivers a message directly into a node's queue
    /// (bypassing the network, like the prototype's host port).
    ///
    /// # Panics
    ///
    /// Panics if the handler label is unknown.
    pub fn deliver_message(
        &mut self,
        node: NodeId,
        priority: MsgPriority,
        handler: &str,
        args: &[Word],
    ) {
        let ip = self.program.handler(handler);
        let header = MsgHeader::new(ip, args.len() as u32 + 1).to_word();
        // In checksum mode host messages carry the trailer too — the node
        // validates every dispatch, however the message arrived.
        let mut words = Vec::with_capacity(args.len() + 2);
        words.push(header);
        words.extend_from_slice(args);
        if self.config.mdp.checksum_msgs {
            words.push(checksum_words(&words));
        }
        if self.recorder.is_some() {
            self.record_op(jm_replay::HostOp::Deliver {
                node: node.0,
                priority: priority.index() as u8,
                words: words.clone(),
            });
        }
        self.deliver_words(node, priority, &words);
    }

    /// Streams pre-built message words into a node's queue — the shared
    /// tail of [`Self::deliver_message`] and of replay application (the log
    /// stores the delivered words, header and trailer included, so replay
    /// does not re-resolve symbols or recompute checksums).
    pub(crate) fn deliver_words(&mut self, node: NodeId, priority: MsgPriority, words: &[Word]) {
        let cycle = self.cycle;
        let target = &mut self.nodes[node.index()];
        // Host deliveries bypass the network and carry no trace id.
        for &w in words {
            assert!(
                target.deliver_traced(priority, w, TraceId::NONE, cycle),
                "host delivery overflow"
            );
        }
        if self.config.engine != Engine::Naive {
            let shard = self.net.shard_of_node(node);
            self.scheds[shard].wake(target, cycle);
            self.scheds[shard].set_work(node.index(), target.has_work());
        }
    }

    /// Host interface: reads a word of node memory.
    pub fn read_word(&self, node: NodeId, addr: u32) -> Word {
        self.nodes[node.index()].read_mem(addr)
    }

    /// Host interface: writes a word of node memory.
    pub fn write_word(&mut self, node: NodeId, addr: u32, word: Word) {
        self.record_op(jm_replay::HostOp::WriteWord {
            node: node.0,
            addr,
            word,
        });
        self.nodes[node.index()].write_mem(addr, word);
    }

    /// Host interface: reads a whole named data block from one node.
    ///
    /// # Panics
    ///
    /// Panics if the program has no such block.
    pub fn read_block(&self, node: NodeId, name: &str) -> Vec<Word> {
        let block = self
            .program
            .data
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no data block `{name}`"));
        self.nodes[node.index()].dump_mem(block.base, block.len)
    }

    /// Advances the machine by one cycle: ejected words are pumped into the
    /// queues, nodes tick, and the network moves flits.
    pub fn step(&mut self) {
        match self.config.engine {
            Engine::Naive => self.step_naive(),
            Engine::Event | Engine::Parallel(_) => self.step_sharded(),
        }
        if self.config.trace.enabled && self.cycle.is_multiple_of(self.config.trace.sample_every) {
            self.record_sample();
        }
    }

    /// Appends one occupancy sample (tracing only). Pure observation: reads
    /// counters every engine already maintains.
    fn record_sample(&mut self) {
        let queued_words: u64 = self.nodes.iter().map(|n| n.queued_words() as u64).sum();
        self.samples.push(SamplePoint {
            cycle: self.cycle,
            queued_words,
            in_flight: self.net.in_flight(),
            active_routers: self.net.active_routers(),
            busy_nodes: self.busy_nodes(),
        });
    }

    /// Reference engine: pump, tick, and scan everything, every cycle.
    fn step_naive(&mut self) {
        let now = self.cycle;
        // 1. Pump ejection FIFOs into message queues (hardware path,
        //    rate-limited upstream by the 0.5 words/cycle eject channel).
        for node in &mut self.nodes {
            let id = node.id();
            for priority in MsgPriority::ALL {
                while let Some((word, trace)) = self.net.delivered_front_traced(id, priority) {
                    if node.deliver_traced(priority, word, trace, now) {
                        self.net.pop_delivered(id, priority);
                    } else {
                        break; // queue full: backpressure
                    }
                }
            }
        }
        // 2. Execute.
        for node in &mut self.nodes {
            let id = node.id();
            let mut port = Port {
                net: &mut self.net,
                node: id,
            };
            node.tick(now, &mut port);
        }
        // 3. Move the network.
        self.net.step();
        self.cycle += 1;
    }

    /// Event/parallel engine step: touch only nodes that can act this
    /// cycle, shard by shard. Cycle-exact with [`Self::step_naive`] —
    /// skipped nodes are exactly those whose naive tick would be a no-op
    /// (still busy) or a pure idle count (repaid on wake-up), and skipped
    /// routers hold no flits. With one shard (the event engine) this is the
    /// classic event-driven step; with several it is the *same* per-shard
    /// code the worker threads run, driven sequentially — which is why
    /// single-cycle stepping of a parallel-configured machine needs no
    /// threads and stays bit-identical.
    fn step_sharded(&mut self) {
        let now = self.cycle;
        let (shards, edges) = self.net.shard_parts();
        for (k, shard) in shards.iter_mut().enumerate() {
            let (below, above) = jm_net::edge_pair(edges, k);
            let nodes = &mut self.nodes[shard.base()..shard.base() + shard.len()];
            crate::parallel::shard_cycle(now, shard, &mut self.scheds[k], nodes, below, above);
        }
        if shards.len() > 1 {
            for (k, shard) in shards.iter_mut().enumerate() {
                let (below, above) = jm_net::edge_pair(edges, k);
                shard.exchange(below, above);
            }
        }
        self.cycle += 1;
    }

    /// Jumps the clock to the next cycle where anything can happen
    /// (earliest scheduled wake-up across all shards), bounded by `limit`.
    /// Legal only while the network is idle — every skipped cycle is then
    /// provably a no-op for every component except idle accounting, which
    /// is repaid on wake-up or virtually in [`Self::stats`].
    fn fast_forward(&mut self, limit: u64) {
        if !self.net.is_idle() {
            return;
        }
        let next = self
            .scheds
            .iter()
            .map(EventSched::next_due)
            .min()
            .unwrap_or(u64::MAX);
        // A pending traffic window is a scheduled wake-up too: skipping to
        // its first cycle is sound (nothing can fire before it), skipping
        // past it would lose generated messages.
        let target = next.min(self.net.traffic_wake()).min(limit);
        if target > self.cycle {
            self.net.skip_to(target);
            self.cycle = target;
        }
    }

    /// Hands the machine to a crew of worker threads (at most one per slab,
    /// at most the configured thread count) until the quantum coordinator
    /// stops them (see [`crate::parallel`]), then resyncs the machine
    /// clock. Only called with more than one shard.
    fn drive_parallel(&mut self, mode: crate::parallel::Mode) {
        let start = self.cycle;
        let threads = match self.config.engine {
            Engine::Parallel(t) => t.max(1) as usize,
            Engine::Event | Engine::Naive => unreachable!("drive_parallel without Parallel"),
        };
        // Auto quantum: long enough that boundary coordination is noise
        // against Q cycles of slab work, short enough that error stops and
        // quiescence detection stay prompt.
        let quantum = match self.config.quantum {
            0 => 64,
            q => u64::from(q),
        };
        let (shards, edges) = self.net.shard_parts();
        let ctl = crate::parallel::QuantumCtl::new(shards.len(), mode, quantum, start);
        let mut slots = Vec::with_capacity(shards.len());
        let mut nodes_rest: &mut [MdpNode] = &mut self.nodes;
        let mut scheds_rest: &mut [EventSched] = &mut self.scheds;
        for shard in shards.iter_mut() {
            let (nodes, rest) = std::mem::take(&mut nodes_rest).split_at_mut(shard.len());
            nodes_rest = rest;
            let (sched, rest) = std::mem::take(&mut scheds_rest)
                .split_first_mut()
                .expect("one scheduler per shard");
            scheds_rest = rest;
            slots.push(std::sync::Mutex::new(crate::parallel::ShardSlot::new(
                shard, sched, nodes,
            )));
        }
        let workers = threads.min(slots.len());
        std::thread::scope(|scope| {
            let ctl = &ctl;
            let slots = &slots;
            for me in 1..workers {
                scope.spawn(move || crate::parallel::crew_loop(me, workers, slots, edges, ctl));
            }
            // The calling thread joins the crew instead of idling.
            crate::parallel::crew_loop(0, workers, slots, edges, ctl);
        });
        self.cycle = ctl.final_cycle();
    }

    /// Whether this machine runs multi-threaded (parallel engine with more
    /// than one shard — a 1-thread parallel machine degenerates to the
    /// event engine's sequential path).
    fn threaded(&self) -> bool {
        matches!(self.config.engine, Engine::Parallel(_)) && self.net.shard_count() > 1
    }

    /// Runs for a fixed number of cycles.
    pub fn run(&mut self, cycles: u64) {
        if self.recorder.is_some() {
            self.run_recorded(cycles);
            return;
        }
        self.run_inner(cycles);
    }

    /// [`Self::run`] without the replay-capture chunking (the recorded path
    /// calls this between hash boundaries).
    pub(crate) fn run_inner(&mut self, cycles: u64) {
        if self.threaded() && cycles > 0 && !self.config.trace.enabled {
            let deadline = self.cycle.saturating_add(cycles);
            self.drive_parallel(crate::parallel::Mode::Fixed { deadline });
            return;
        }
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Whether nothing can happen anymore: every node idle with empty
    /// queues and the network drained. O(1) on the event engine (maintained
    /// counters); a full scan on the naive engine.
    pub fn is_quiescent(&self) -> bool {
        // A machine whose traffic plan can still generate messages is not
        // finished, however idle it looks right now.
        if self.net.traffic_wake() != u64::MAX {
            return false;
        }
        match self.config.engine {
            Engine::Naive => self.net.is_idle() && self.nodes.iter().all(|n| !n.has_work()),
            Engine::Event | Engine::Parallel(_) => {
                self.scheds.iter().all(|s| s.work_count == 0) && self.net.is_idle()
            }
        }
    }

    /// Nodes that stopped with an error.
    pub fn node_errors(&self) -> Vec<(NodeId, NodeError)> {
        self.nodes
            .iter()
            .filter_map(|n| n.error().map(|e| (n.id(), e.clone())))
            .collect()
    }

    /// Whether any node stopped with an error (O(1) on the event engine).
    fn any_node_error(&self) -> bool {
        match self.config.engine {
            Engine::Naive => self.nodes.iter().any(|n| n.error().is_some()),
            Engine::Event | Engine::Parallel(_) => self.scheds.iter().any(|s| s.error_count > 0),
        }
    }

    /// Nodes that still have runnable or queued work.
    fn busy_nodes(&self) -> u32 {
        match self.config.engine {
            Engine::Naive => self.nodes.iter().filter(|n| n.has_work()).count() as u32,
            Engine::Event | Engine::Parallel(_) => {
                self.scheds.iter().map(|s| s.work_count as u32).sum()
            }
        }
    }

    /// Runs until quiescence, a node error, or the cycle budget. All three
    /// conditions are checked every cycle on both engines, so the returned
    /// cycle counts (and timeout cycle counts) are engine-independent; on
    /// the event engine each check is O(1) and stretches of cycles where
    /// nothing can happen are skipped outright.
    ///
    /// # Errors
    ///
    /// [`MachineError::NodeErrors`] if any node stopped on a fatal error,
    /// [`MachineError::Timeout`] if the budget elapsed, and
    /// [`MachineError::StrandedMessages`] if the machine quiesced with
    /// words still queued at halted/errored nodes.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> Result<u64, MachineError> {
        if self.recorder.is_some() {
            return self.run_until_quiescent_recorded(max_cycles);
        }
        self.run_until_quiescent_inner(max_cycles)
    }

    /// [`Self::run_until_quiescent`] without the replay-capture chunking.
    pub(crate) fn run_until_quiescent_inner(
        &mut self,
        max_cycles: u64,
    ) -> Result<u64, MachineError> {
        let start = self.cycle;
        let deadline = start.saturating_add(max_cycles);
        loop {
            if self.any_node_error() {
                return Err(MachineError::NodeErrors(self.node_errors()));
            }
            if self.is_quiescent() {
                let stranded: Vec<NodeId> = self
                    .nodes
                    .iter()
                    .filter(|n| n.queued_words() > 0)
                    .map(|n| n.id())
                    .collect();
                if !stranded.is_empty() {
                    return Err(MachineError::StrandedMessages { nodes: stranded });
                }
                return Ok(self.cycle - start);
            }
            if self.cycle >= deadline {
                return Err(MachineError::Timeout {
                    cycles: self.cycle - start,
                    busy_nodes: self.busy_nodes(),
                    in_flight: self.net.in_flight(),
                });
            }
            if self.config.engine != Engine::Naive {
                self.fast_forward(deadline);
                if self.cycle >= deadline {
                    continue; // skipped straight to the budget: time out
                }
            }
            if self.threaded() {
                // Run threaded until the coordinator hits one of this
                // loop's stop conditions (its decision rule mirrors the
                // checks above exactly), then loop around to classify it.
                self.drive_parallel(crate::parallel::Mode::Quiescent { deadline });
                continue;
            }
            self.step();
        }
    }

    /// Aggregated statistics snapshot.
    ///
    /// On the event engine, idle cycles owed to currently-parked nodes
    /// (skipped since their last tick) are included here virtually, so the
    /// snapshot always matches what the naive engine would report at the
    /// same cycle. Per-node [`MdpNode::stats`] of a parked node lag by
    /// exactly that idle residue until the node next wakes.
    pub fn stats(&self) -> MachineStats {
        let mut nodes = jm_mdp::NodeStats::default();
        for node in &self.nodes {
            nodes.merge(node.stats());
        }
        if self.config.engine != Engine::Naive {
            for sched in &self.scheds {
                for &since in &sched.idle_since {
                    if since != NOT_IDLE && self.cycle > since {
                        nodes.add_cycles(StatClass::Idle, self.cycle - since);
                    }
                }
            }
        }
        MachineStats {
            cycles: self.cycle,
            nodes,
            net: self.net.stats(),
        }
    }

    /// Collects the machine's lifecycle trace: every component's event
    /// buffer merged into one deterministically-ordered [`MachineTrace`],
    /// plus the periodic occupancy samples. Returns `None` when the machine
    /// was built with tracing disabled. Draining is destructive — buffers
    /// restart empty, so a second call covers only cycles simulated since.
    pub fn take_trace(&mut self) -> Option<MachineTrace> {
        if !self.config.trace.enabled {
            return None;
        }
        let mut sources = Vec::with_capacity(self.nodes.len() + 1);
        sources.push(self.net.take_trace_events());
        for node in &mut self.nodes {
            sources.push(node.take_trace_events());
        }
        Some(MachineTrace::assemble(
            sources,
            std::mem::take(&mut self.samples),
            self.node_count(),
        ))
    }

    /// Combined state hash at the current cycle: an in-order FNV-1a fold of
    /// exactly the hashes [`Self::component_hashes`] reports, over every
    /// piece of simulated state the engines are required to agree on (node
    /// registers, queues, memory, control state; per-router channel
    /// occupancy). Engine bookkeeping — schedulers, statistics, traces,
    /// scan modes — is excluded by construction, so equal machine states
    /// hash equal under *any* engine, thread count, quantum, or scheduler
    /// mode. Takes `&mut self` because in-flight bulk wormhole transfers
    /// are first materialized to their exact buffered equivalent (a
    /// semantically invisible canonicalization; see `jm-net`).
    pub fn state_hash(&mut self) -> u64 {
        let at = self.cycle;
        let mut h = jm_trace::Fnv1a::new();
        for node in &self.nodes {
            for (_, hash) in node.state_components(at) {
                h.write_u64(hash);
            }
        }
        self.net.fold_components(|_, _, hash| h.write_u64(hash));
        h.finish()
    }

    /// Per-component state hashes at the current cycle, in the fixed order
    /// whose fold equals [`Self::state_hash`]: for each node (ascending
    /// id) its `regs`/`queues`/`mem`/`ctl` parts, then for each router
    /// (ascending id) its two virtual networks' channel occupancy. Labels
    /// are stable, human-readable component names — divergence reports
    /// print them verbatim.
    pub fn component_hashes(&mut self) -> Vec<jm_replay::ComponentHash> {
        let at = self.cycle;
        let dims = self.config.dims;
        let mut out = Vec::with_capacity(self.nodes.len() * 6);
        for node in &self.nodes {
            for (part, hash) in node.state_components(at) {
                out.push(jm_replay::ComponentHash {
                    label: format!("node {} {part}", node.id().0),
                    hash,
                });
            }
        }
        self.net.fold_components(|id, vnet, hash| {
            let c = dims.coord(id);
            out.push(jm_replay::ComponentHash {
                label: format!("router ({},{},{}) vnet{vnet} occupancy", c.x, c.y, c.z),
                hash,
            });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_asm::{hdr, Builder, Region};
    use jm_isa::instr::{AluOp, StatClass};
    use jm_isa::operand::{MemRef, Special};
    use jm_isa::reg::AReg::*;
    use jm_isa::reg::DReg::*;
    use jm_isa::tag::Tag;

    /// Node 0 sends an increment request to node `N-1`; that node replies
    /// with the incremented value; node 0 stores it.
    fn rpc_program() -> Program {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);

        b.label("main");
        // Build a route word for the last node. Dims are read from the
        // DIMS special; for the test machine (2x2x2) the last node is
        // (1,1,1) = bits 0b10000100001.
        b.movi(R0, 0x421);
        b.wtag(R0, R0, Tag::Route.bits() as i32);
        b.send(MsgPriority::P0, R0);
        b.send2(MsgPriority::P0, hdr("incr", 3), 41);
        b.sende(MsgPriority::P0, Special::Nnr); // reply route
        b.suspend();

        b.label("incr");
        b.mov(R0, MemRef::disp(A3, 1)); // value
        b.addi(R0, R0, 1);
        b.send(MsgPriority::P0, MemRef::disp(A3, 2)); // reply route word
        b.send2e(MsgPriority::P0, hdr("store", 2), R0);
        b.suspend();

        b.label("store");
        b.mov(R0, MemRef::disp(A3, 1));
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), R0);
        b.suspend();

        b.entry("main");
        b.assemble().unwrap()
    }

    #[test]
    fn end_to_end_rpc() {
        let mut m = JMachine::new(rpc_program(), MachineConfig::new(8));
        let cycles = m.run_until_quiescent(10_000).unwrap();
        let out = m.program().segment("out");
        assert_eq!(m.read_word(NodeId(0), out.base).as_i32(), 42);
        // Whole exchange should take tens of cycles, not thousands.
        assert!(cycles < 200, "RPC took {cycles} cycles");
        let stats = m.stats();
        assert_eq!(stats.nodes.msgs_sent, 2);
        assert_eq!(stats.nodes.msgs_received, 2);
        assert_eq!(stats.net.delivered_msgs, 2);
    }

    #[test]
    fn faulted_rpc_completes_and_engines_agree() {
        // A lossless delay plan (flaky links) plus checksum trailers: the
        // RPC must still produce the right answer on every engine, with
        // bit-identical statistics, while the plan demonstrably interfered.
        let spec = jm_fault::FaultSpec::new(99).flaky(200_000).checksums(true);
        let mut reference: Option<(u64, MachineStats)> = None;
        for engine in [Engine::Naive, Engine::Event, Engine::Parallel(2)] {
            let cfg = MachineConfig::new(8).engine(engine).fault(spec);
            let mut m = JMachine::new(rpc_program(), cfg);
            let cycles = m.run_until_quiescent(100_000).unwrap();
            let out = m.program().segment("out");
            assert_eq!(m.read_word(NodeId(0), out.base).as_i32(), 42);
            let stats = m.stats();
            assert!(
                stats.net.faults.blocked_moves > 0,
                "plan injected nothing on {engine:?}"
            );
            assert_eq!(stats.net.delivered_msgs, 2);
            match &reference {
                None => reference = Some((cycles, stats)),
                Some((c, s)) => {
                    assert_eq!(cycles, *c, "{engine:?} cycle count diverged");
                    assert_eq!(&stats, s, "{engine:?} stats diverged");
                }
            }
        }
    }

    #[test]
    fn vacuous_fault_spec_is_fault_free() {
        let mut clean = JMachine::new(rpc_program(), MachineConfig::new(8));
        let clean_cycles = clean.run_until_quiescent(10_000).unwrap();
        let cfg = MachineConfig::new(8).fault(jm_fault::FaultSpec::none());
        let mut vacuous = JMachine::new(rpc_program(), cfg);
        let vac_cycles = vacuous.run_until_quiescent(10_000).unwrap();
        assert_eq!(clean_cycles, vac_cycles);
        assert_eq!(clean.stats(), vacuous.stats());
        // No plan was materialized, so no checksum trailers either.
        assert!(!vacuous.config().mdp.checksum_msgs);
    }

    #[test]
    fn host_delivery_and_block_read() {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 4);
        b.label("fill");
        b.load_seg(A0, "out");
        b.movi(R0, 0);
        b.label("loop");
        b.mov(MemRef::reg(A0, R0), R0);
        b.addi(R0, R0, 1);
        b.alu(AluOp::Lt, R1, R0, 4);
        b.bt(R1, "loop");
        b.suspend();
        let p = b.assemble().unwrap();
        let mut m = JMachine::new(p, MachineConfig::new(1).start(StartPolicy::None));
        m.deliver_message(NodeId(0), MsgPriority::P0, "fill", &[]);
        m.run_until_quiescent(10_000).unwrap();
        let block = m.read_block(NodeId(0), "out");
        let values: Vec<i32> = block.iter().map(|w| w.as_i32()).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn timeout_reports_busy_state() {
        let mut b = Builder::new();
        b.label("spin");
        b.br("spin");
        b.entry("spin");
        let mut m = JMachine::new(b.assemble().unwrap(), MachineConfig::new(1));
        match m.run_until_quiescent(100) {
            Err(MachineError::Timeout { busy_nodes, .. }) => assert_eq!(busy_nodes, 1),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn node_error_surfaces() {
        let mut b = Builder::new();
        b.label("main");
        b.alu(AluOp::Div, R0, 1, 0); // no vector installed
        b.halt();
        b.entry("main");
        let mut m = JMachine::new(b.assemble().unwrap(), MachineConfig::new(1));
        match m.run_until_quiescent(1000) {
            Err(MachineError::NodeErrors(errors)) => {
                assert_eq!(errors.len(), 1);
                assert!(matches!(errors[0].1, NodeError::UnhandledFault { .. }));
            }
            other => panic!("expected node error, got {other:?}"),
        }
    }

    #[test]
    fn all_nodes_policy_runs_everywhere() {
        let mut b = Builder::new();
        b.reserve("out", Region::Imem, 1);
        b.label("main");
        b.load_seg(A0, "out");
        b.mov(MemRef::disp(A0, 0), Special::Nid);
        b.halt();
        b.entry("main");
        let p = b.assemble().unwrap();
        let out = p.segment("out");
        let mut m = JMachine::new(p, MachineConfig::new(8).start(StartPolicy::AllNodes));
        m.run_until_quiescent(10_000).unwrap();
        for id in 0..8 {
            assert_eq!(m.read_word(NodeId(id), out.base).as_i32(), id as i32);
        }
        // Every node spent dispatch-free compute time; idle only at the end.
        let stats = m.stats();
        assert!(stats.class_fraction(StatClass::Compute) > 0.0);
    }

    #[test]
    fn stranded_messages_detected() {
        let mut b = Builder::new();
        b.label("main");
        b.halt();
        b.label("never");
        b.suspend();
        b.entry("main");
        let p = b.assemble().unwrap();
        let mut m = JMachine::new(p, MachineConfig::new(1));
        // Halt the node, then deliver a message nobody will handle.
        m.run_until_quiescent(1000).unwrap();
        m.deliver_message(NodeId(0), MsgPriority::P0, "never", &[]);
        match m.run_until_quiescent(1000) {
            Err(MachineError::StrandedMessages { nodes }) => assert_eq!(nodes, vec![NodeId(0)]),
            other => panic!("expected stranded, got {other:?}"),
        }
    }

    #[test]
    fn traced_parallel_is_rejected() {
        use crate::config::TraceConfig;
        let cfg = MachineConfig::new(8)
            .engine(Engine::Parallel(2))
            .trace(TraceConfig::on());
        // Refuse to build — a benchmark that asked for the parallel engine
        // must not silently measure a different one.
        match JMachine::try_new(rpc_program(), cfg) {
            Err(MachineError::TraceUnsupportedUnderParallel) => {}
            other => panic!("expected TraceUnsupportedUnderParallel, got {other:?}"),
        }
    }

    #[test]
    fn oversubscribed_parallel_run_stays_linear() {
        // Regression test for the spin-barrier collapse: with more worker
        // threads than host cores, busy-wait synchronization burned whole
        // scheduling quanta and parallel-4 ran at 0.27x the event engine
        // on the committed 1-CPU bench. The crew design lets whichever
        // thread the OS runs advance *every* slab while task-starved
        // workers escalate spin -> yield -> sleep, so adding threads past
        // the core count may cost only a modest constant factor -- on any
        // host, including a single-core one.
        let spin = || {
            let mut b = Builder::new();
            b.label("spin");
            b.br("spin");
            b.entry("spin");
            b.assemble().unwrap()
        };
        let wall = |threads: u32| {
            let mut m = JMachine::new(
                spin(),
                MachineConfig::new(16)
                    .start(StartPolicy::AllNodes)
                    .engine(Engine::Parallel(threads)),
            );
            let t0 = std::time::Instant::now();
            m.run(150_000);
            assert_eq!(m.cycle(), 150_000);
            t0.elapsed()
        };
        let p1 = wall(1);
        let p4 = wall(4);
        assert!(
            p4 < p1 * 4 + std::time::Duration::from_millis(250),
            "parallel-4 degraded super-linearly vs parallel-1: {p4:?} vs {p1:?}"
        );
    }
}
