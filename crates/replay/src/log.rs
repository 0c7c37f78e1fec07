//! The replay log: binary format, encoder, decoder.
//!
//! A log is everything a re-execution cannot derive for itself — the full
//! machine configuration (including the fault and traffic specs: fault and
//! injection decisions are pure functions of `(seed, node, port, cycle)`
//! and `(seed, node, cycle)` respectively, so each spec *is* the outcome),
//! the program image, and every host-boundary input stamped with
//! the cycle it was applied at — plus a trail of per-interval state hashes
//! against which a re-execution is checked. Everything that happens
//! *inside* the machine (sends, routing, fault draws, traffic injection,
//! handler dispatch) is deterministic given those inputs and is
//! deliberately not recorded.
//!
//! The byte format is little-endian throughout, magic `JMRP2\n` (version 2
//! added the traffic-spec section), and has no alignment padding; see
//! `DESIGN.md` §4.11 for the field-by-field layout.

use jm_asm::{DataBlock, Program, SymbolValue};
use jm_fault::{FaultSpec, FaultWindow, FaultWindowKind};
use jm_isa::encode::{decode, encode, Encoded, SLOT_BITS};
use jm_isa::node::MeshDims;
use jm_isa::tag::Tag;
use jm_isa::word::{SegDesc, Word};
use jm_mdp::{MdpConfig, TimingConfig};
use jm_net::{NetConfig, ScanPolicy};
use jm_traffic::{TrafficPattern, TrafficSpec};
use std::fmt;
use std::path::Path;

/// Magic bytes opening every log (`JMRP` + format version 2; version 1
/// predates the traffic-spec section). Logs are ephemeral CI artifacts,
/// so a format bump invalidates nothing durable — an old log fails
/// cleanly at the magic check instead of misparsing.
pub const MAGIC: &[u8; 6] = b"JMRP2\n";

/// Default hash-boundary spacing in cycles. Chosen so that hashing every
/// node's register file, queues, and memory pages plus every router's
/// arena occupancy stays well under 10% of wall time on the load-dominated
/// bench (`exchange64_replay_capture` in BENCH_engine.json guards this),
/// while a post-hoc bisection still only has to halve a few-thousand-cycle
/// window.
pub const DEFAULT_INTERVAL: u64 = 4096;

/// A malformed or truncated log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogError {
    message: String,
}

impl LogError {
    fn new(message: impl Into<String>) -> LogError {
        LogError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay log error: {}", self.message)
    }
}

impl std::error::Error for LogError {}

/// The machine configuration a log was recorded under, as plain data.
///
/// Engine, thread count, quantum, and scan policy (`net.scan`) are
/// *metadata*: the three engines are bit-identical by construction, so a
/// replay may run under any of them — these fields record what the
/// original run used so a divergence report can name both sides.
/// Everything else (dims, start policy, timing, queue depths, network
/// buffers) shapes simulated behavior and must be reproduced exactly.
///
/// Discriminant fields mirror `jm-machine` enums this crate cannot name
/// (it sits below `jm-machine` in the dependency order): `start` is
/// 0 = Node0 / 1 = AllNodes / 2 = None, `engine` is 0 = Naive / 1 = Event /
/// 2 = Parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedConfig {
    /// Mesh dimensions.
    pub dims: MeshDims,
    /// Start-policy discriminant.
    pub start: u8,
    /// Engine discriminant of the recording run.
    pub engine: u8,
    /// Thread count of the recording run (parallel engine only).
    pub threads: u32,
    /// Scheduling quantum of the recording run (0 = auto).
    pub quantum: u32,
    /// Node configuration (timing model, queue depths, checksum mode).
    pub mdp: MdpConfig,
    /// Network configuration (buffer depths, latencies, bulk fast path).
    pub net: NetConfig,
}

/// One host-boundary input. Each op is stored with the cycle it was
/// applied at (see [`Record::Op`]); a replay advances the machine to that
/// cycle, applies the op, and continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostOp {
    /// `install_vector_all`: fault vector `kind` set to handler `ip` on
    /// every node.
    InstallVectorAll {
        /// `FaultKind` discriminant.
        kind: u8,
        /// Resolved handler instruction address.
        ip: u32,
    },
    /// A fault vector installed on a single node.
    InstallVector {
        /// Global node id.
        node: u32,
        /// `FaultKind` discriminant.
        kind: u8,
        /// Resolved handler instruction address.
        ip: u32,
    },
    /// A host message delivered directly into a node's queue. `words` is
    /// the exact on-wire sequence (header, arguments, and the checksum
    /// trailer when the run used checksummed messages).
    Deliver {
        /// Global node id.
        node: u32,
        /// Message priority (0 or 1).
        priority: u8,
        /// The delivered words, verbatim.
        words: Vec<Word>,
    },
    /// A host write of one word of node memory.
    WriteWord {
        /// Global node id.
        node: u32,
        /// Word address.
        addr: u32,
        /// The written word.
        word: Word,
    },
}

/// One record in the log body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A host-boundary input, applied when the machine clock read `cycle`.
    Op {
        /// Machine cycle at which the op was applied.
        cycle: u64,
        /// The input itself.
        op: HostOp,
    },
    /// A state-hash checkpoint: the machine's combined component hash
    /// (see `JMachine::state_hash`) when its clock read `cycle`.
    Boundary {
        /// Machine cycle of the checkpoint.
        cycle: u64,
        /// Combined FNV-1a state hash at that cycle.
        hash: u64,
    },
    /// The final checkpoint of a cleanly-finished recording. Absent when
    /// the recording process died mid-run (the drop handler writes what it
    /// has); verification then checks every boundary it finds.
    End {
        /// Final machine cycle.
        cycle: u64,
        /// Combined state hash at that cycle.
        hash: u64,
    },
}

impl Record {
    /// The record's cycle stamp.
    pub fn cycle(&self) -> u64 {
        match *self {
            Record::Op { cycle, .. }
            | Record::Boundary { cycle, .. }
            | Record::End { cycle, .. } => cycle,
        }
    }
}

/// A complete replay log.
///
/// Equality compares the canonical serialized form, because `Program` does
/// not itself implement `PartialEq` and the byte encoding is canonical
/// (symbols are serialized in sorted order).
#[derive(Debug, Clone)]
pub struct ReplayLog {
    /// Configuration of the recording run.
    pub config: RecordedConfig,
    /// Fault campaign, if the run injected faults. The spec alone
    /// reproduces every fault decision on replay.
    pub fault: Option<FaultSpec>,
    /// Synthetic traffic plan, if the run generated background traffic.
    /// Like the fault spec, injection is a pure function of
    /// `(seed, node, cycle)`, so the spec alone reproduces every
    /// generated message on replay.
    pub traffic: Option<TrafficSpec>,
    /// Hash-boundary spacing in cycles the recorder aimed for.
    pub interval: u64,
    /// The program image loaded on every node.
    pub program: Program,
    /// The body: ops and checkpoints in recording order.
    pub records: Vec<Record>,
}

impl PartialEq for ReplayLog {
    fn eq(&self, other: &ReplayLog) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl ReplayLog {
    /// The log's final cycle: the `End` record's stamp, or the last
    /// record's when the recording was cut short.
    pub fn end_cycle(&self) -> u64 {
        self.records.last().map_or(0, Record::cycle)
    }

    /// Number of hash checkpoints (boundaries plus the end record).
    pub fn checkpoints(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, Record::Boundary { .. } | Record::End { .. }))
            .count()
    }

    /// Digest of the checkpoint stream in `[from, to)`: every boundary's
    /// `(cycle, hash)` folded through FNV-1a in order, starting from
    /// `seed`. Because FNV-1a composes over concatenation, the digest of
    /// `[a, c)` equals the digest of `[b, c)` seeded with the digest of
    /// `[a, b)` — the interval-composition property the replay test suite
    /// checks on real logs.
    pub fn interval_digest_from(&self, seed: u64, from: u64, to: u64) -> u64 {
        let mut f = jm_trace::Fnv1a::with_seed(seed);
        for r in &self.records {
            if let Record::Boundary { cycle, hash } | Record::End { cycle, hash } = *r {
                if cycle >= from && cycle < to {
                    f.write_u64(cycle);
                    f.write_u64(hash);
                }
            }
        }
        f.finish()
    }

    /// [`Self::interval_digest_from`] seeded with the FNV offset basis.
    pub fn interval_digest(&self, from: u64, to: u64) -> u64 {
        self.interval_digest_from(jm_trace::fnv1a(b""), from, to)
    }

    /// Flips one bit of the hash in the `index`-th checkpoint record
    /// (boundaries and the end record both count), returning the cycle of
    /// the corrupted checkpoint. Used by the CI self-test that proves the
    /// bisector localizes a corrupt log to exactly the right cycle.
    /// Returns `None` when the log has fewer checkpoints.
    pub fn corrupt_checkpoint(&mut self, index: usize) -> Option<u64> {
        let mut seen = 0;
        for r in &mut self.records {
            if let Record::Boundary { cycle, hash } | Record::End { cycle, hash } = r {
                if seen == index {
                    *hash ^= 1;
                    return Some(*cycle);
                }
                seen += 1;
            }
        }
        None
    }

    /// Serializes the log to its byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(MAGIC);
        let c = &self.config;
        w.u8(c.dims.x);
        w.u8(c.dims.y);
        w.u8(c.dims.z);
        w.u8(c.start);
        w.u8(c.engine);
        w.u32(c.threads);
        w.u32(c.quantum);
        // The scan-policy byte: 0 = Auto / 1 = ForcedSparse / 2 = ForcedDense.
        w.u8(match c.net.scan {
            ScanPolicy::Auto => 0,
            ScanPolicy::ForcedSparse => 1,
            ScanPolicy::ForcedDense => 2,
        });
        w.u64(self.interval);
        let t = &c.mdp.timing;
        for v in [
            t.base,
            t.imem_operand,
            t.emem_operand,
            t.queue_operand,
            t.emem_fetch,
            t.imm_ext,
            t.branch_taken,
            t.jump,
            t.mul,
            t.div,
            t.dispatch,
            t.fault_entry,
            t.xlate_extra,
            t.enter_extra,
            t.resume_extra,
        ] {
            w.u64(v);
        }
        w.u32(c.mdp.queue0_words);
        w.u32(c.mdp.queue1_words);
        w.u64(c.mdp.xlate_entries as u64);
        w.u8(c.mdp.checksum_msgs as u8);
        w.u64(c.net.flit_buffer as u64);
        w.u64(c.net.inject_fifo as u64);
        w.u64(c.net.inject_latency);
        w.u64(c.net.eject_fifo as u64);
        w.u8(c.net.bulk as u8);
        match &self.fault {
            None => w.u8(0),
            Some(spec) => {
                w.u8(1);
                w.u64(spec.seed);
                w.u32(spec.link_flaky_ppm);
                w.u32(spec.corrupt_ppm);
                w.u8(spec.checksums as u8);
                let windows = spec.windows();
                w.u8(windows.len() as u8);
                for win in windows {
                    w.u8(match win.kind {
                        FaultWindowKind::LinkDown => 0,
                        FaultWindowKind::RouterStall => 1,
                        FaultWindowKind::NodeDown => 2,
                    });
                    w.u32(win.node);
                    w.u8(win.port);
                    w.u64(win.from);
                    w.u64(win.until);
                }
            }
        }
        match &self.traffic {
            None => w.u8(0),
            Some(spec) => {
                w.u8(1);
                w.u64(spec.seed);
                match spec.pattern {
                    TrafficPattern::UniformRandom => w.u8(0),
                    TrafficPattern::Transpose => w.u8(1),
                    TrafficPattern::BitReversal => w.u8(2),
                    TrafficPattern::Hotspot { weight_ppm } => {
                        w.u8(3);
                        w.u32(weight_ppm);
                    }
                    TrafficPattern::NearestNeighbor => w.u8(4),
                }
                w.u32(spec.load_ppm);
                w.u32(spec.msg_words);
                w.u64(spec.from);
                w.u64(spec.until);
                w.u32(spec.handler_ip);
            }
        }
        let p = &self.program;
        w.u32(p.code.len() as u32);
        for instr in &p.code {
            let slots = encode(instr).slot_values();
            w.u8(slots.len() as u8);
            for s in slots {
                w.u32(s);
            }
        }
        w.u32(p.code_base);
        w.u32(p.code_words);
        w.u32(p.data.len() as u32);
        for block in &p.data {
            w.name(&block.name);
            w.u32(block.base);
            w.u32(block.len);
            w.u32(block.init.len() as u32);
            for word in &block.init {
                w.word(*word);
            }
        }
        // Symbol tables are hash maps; serialize sorted by name so two
        // recordings of the same run produce byte-identical logs.
        let mut symbols: Vec<(&str, SymbolValue)> = p.symbols.iter().collect();
        symbols.sort_by_key(|&(name, _)| name);
        w.u32(symbols.len() as u32);
        for (name, value) in symbols {
            w.name(name);
            match value {
                SymbolValue::Code(ip) => {
                    w.u8(0);
                    w.u32(ip);
                }
                SymbolValue::Data(seg) => {
                    w.u8(1);
                    w.word(seg.to_word());
                }
                SymbolValue::Const(word) => {
                    w.u8(2);
                    w.word(word);
                }
            }
        }
        match p.entry {
            None => w.u8(0),
            Some(ip) => {
                w.u8(1);
                w.u32(ip);
            }
        }
        for r in &self.records {
            match r {
                Record::Op { cycle, op } => match op {
                    HostOp::InstallVectorAll { kind, ip } => {
                        w.u8(1);
                        w.u64(*cycle);
                        w.u8(*kind);
                        w.u32(*ip);
                    }
                    HostOp::InstallVector { node, kind, ip } => {
                        w.u8(2);
                        w.u64(*cycle);
                        w.u32(*node);
                        w.u8(*kind);
                        w.u32(*ip);
                    }
                    HostOp::Deliver {
                        node,
                        priority,
                        words,
                    } => {
                        w.u8(3);
                        w.u64(*cycle);
                        w.u32(*node);
                        w.u8(*priority);
                        w.u32(words.len() as u32);
                        for word in words {
                            w.word(*word);
                        }
                    }
                    HostOp::WriteWord { node, addr, word } => {
                        w.u8(4);
                        w.u64(*cycle);
                        w.u32(*node);
                        w.u32(*addr);
                        w.word(*word);
                    }
                },
                Record::Boundary { cycle, hash } => {
                    w.u8(5);
                    w.u64(*cycle);
                    w.u64(*hash);
                }
                Record::End { cycle, hash } => {
                    w.u8(6);
                    w.u64(*cycle);
                    w.u64(*hash);
                }
            }
        }
        w.out
    }

    /// Parses a log from its byte format.
    ///
    /// # Errors
    ///
    /// [`LogError`] on bad magic, truncation, or any malformed field
    /// (including instructions that fail to decode).
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayLog, LogError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(LogError::new("bad magic (not a replay log?)"));
        }
        let dims = MeshDims::new(r.u8()?, r.u8()?, r.u8()?);
        let start = r.u8()?;
        let engine = r.u8()?;
        let threads = r.u32()?;
        let quantum = r.u32()?;
        // Out-of-range values fall back to the default rather than failing
        // a hand-edited log.
        let scan = match r.u8()? {
            1 => ScanPolicy::ForcedSparse,
            2 => ScanPolicy::ForcedDense,
            _ => ScanPolicy::Auto,
        };
        let interval = r.u64()?;
        let timing = TimingConfig {
            base: r.u64()?,
            imem_operand: r.u64()?,
            emem_operand: r.u64()?,
            queue_operand: r.u64()?,
            emem_fetch: r.u64()?,
            imm_ext: r.u64()?,
            branch_taken: r.u64()?,
            jump: r.u64()?,
            mul: r.u64()?,
            div: r.u64()?,
            dispatch: r.u64()?,
            fault_entry: r.u64()?,
            xlate_extra: r.u64()?,
            enter_extra: r.u64()?,
            resume_extra: r.u64()?,
        };
        let mdp = MdpConfig {
            timing,
            queue0_words: r.u32()?,
            queue1_words: r.u32()?,
            xlate_entries: r.u64()? as usize,
            checksum_msgs: r.u8()? != 0,
        };
        let net = NetConfig {
            dims,
            flit_buffer: r.u64()? as usize,
            inject_fifo: r.u64()? as usize,
            inject_latency: r.u64()?,
            eject_fifo: r.u64()? as usize,
            scan,
            bulk: r.u8()? != 0,
        };
        let fault = if r.u8()? != 0 {
            let mut spec = FaultSpec::new(r.u64()?)
                .flaky(r.u32()?)
                .corrupt(r.u32()?)
                .checksums(r.u8()? != 0);
            let nwin = r.u8()?;
            for _ in 0..nwin {
                let kind = r.u8()?;
                let node = r.u32()?;
                let port = r.u8()?;
                let from = r.u64()?;
                let until = r.u64()?;
                spec = spec.window(match kind {
                    0 => FaultWindow::link_down(node, port, from, until),
                    1 => FaultWindow::router_stall(node, from, until),
                    2 => FaultWindow::node_down(node, from, until),
                    k => return Err(LogError::new(format!("bad fault window kind {k}"))),
                });
            }
            Some(spec)
        } else {
            None
        };
        let traffic = if r.u8()? != 0 {
            let seed = r.u64()?;
            let pattern = match r.u8()? {
                0 => TrafficPattern::UniformRandom,
                1 => TrafficPattern::Transpose,
                2 => TrafficPattern::BitReversal,
                3 => TrafficPattern::Hotspot {
                    weight_ppm: r.u32()?,
                },
                4 => TrafficPattern::NearestNeighbor,
                k => return Err(LogError::new(format!("bad traffic pattern {k}"))),
            };
            let mut spec = TrafficSpec::new(seed).pattern(pattern);
            spec.load_ppm = r.u32()?;
            spec.msg_words = r.u32()?;
            spec.from = r.u64()?;
            spec.until = r.u64()?;
            spec.handler_ip = r.u32()?;
            Some(spec)
        } else {
            None
        };
        let ninstr = r.u32()?;
        let mut code = Vec::with_capacity(r.capacity(ninstr, 1));
        for i in 0..ninstr {
            let nslots = r.u8()?;
            let mut slots = Vec::with_capacity(r.capacity(u32::from(nslots), 4));
            for _ in 0..nslots {
                let slot = r.u32()?;
                if slot >> SLOT_BITS != 0 {
                    return Err(LogError::new(format!(
                        "instruction {i}: slot {slot:#x} exceeds {SLOT_BITS} bits"
                    )));
                }
                slots.push(slot);
            }
            let instr = decode(&Encoded::from_slots(&slots))
                .map_err(|e| LogError::new(format!("instruction {i}: {e}")))?;
            code.push(instr);
        }
        let code_base = r.u32()?;
        let code_words = r.u32()?;
        let nblocks = r.u32()?;
        let mut data = Vec::with_capacity(r.capacity(nblocks, 14));
        for _ in 0..nblocks {
            let name = r.name()?;
            let base = r.u32()?;
            let len = r.u32()?;
            let ninit = r.u32()?;
            let mut init = Vec::with_capacity(r.capacity(ninit, 5));
            for _ in 0..ninit {
                init.push(r.word()?);
            }
            data.push(DataBlock {
                name,
                base,
                len,
                init,
            });
        }
        let mut program = Program {
            code,
            code_base,
            code_words,
            data,
            ..Program::default()
        };
        let nsyms = r.u32()?;
        for _ in 0..nsyms {
            let name = r.name()?;
            let value = match r.u8()? {
                0 => SymbolValue::Code(r.u32()?),
                1 => SymbolValue::Data(SegDesc::from_word(r.word()?)),
                2 => SymbolValue::Const(r.word()?),
                k => return Err(LogError::new(format!("bad symbol kind {k}"))),
            };
            program.symbols.insert(name, value);
        }
        program.entry = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        let mut records = Vec::new();
        while !r.at_end() {
            let tag = r.u8()?;
            let cycle = r.u64()?;
            let record = match tag {
                1 => Record::Op {
                    cycle,
                    op: HostOp::InstallVectorAll {
                        kind: r.u8()?,
                        ip: r.u32()?,
                    },
                },
                2 => Record::Op {
                    cycle,
                    op: HostOp::InstallVector {
                        node: r.u32()?,
                        kind: r.u8()?,
                        ip: r.u32()?,
                    },
                },
                3 => {
                    let node = r.u32()?;
                    let priority = r.u8()?;
                    let nwords = r.u32()?;
                    let mut words = Vec::with_capacity(r.capacity(nwords, 5));
                    for _ in 0..nwords {
                        words.push(r.word()?);
                    }
                    Record::Op {
                        cycle,
                        op: HostOp::Deliver {
                            node,
                            priority,
                            words,
                        },
                    }
                }
                4 => Record::Op {
                    cycle,
                    op: HostOp::WriteWord {
                        node: r.u32()?,
                        addr: r.u32()?,
                        word: r.word()?,
                    },
                },
                5 => Record::Boundary {
                    cycle,
                    hash: r.u64()?,
                },
                6 => Record::End {
                    cycle,
                    hash: r.u64()?,
                },
                t => return Err(LogError::new(format!("bad record tag {t}"))),
            };
            records.push(record);
        }
        Ok(ReplayLog {
            config: RecordedConfig {
                dims,
                start,
                engine,
                threads,
                quantum,
                mdp,
                net,
            },
            fault,
            traffic,
            interval,
            program,
            records,
        })
    }

    /// Writes the log to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a log from a file.
    ///
    /// # Errors
    ///
    /// [`LogError`] on I/O failure or a malformed log.
    pub fn read_file(path: impl AsRef<Path>) -> Result<ReplayLog, LogError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| LogError::new(format!("{}: {e}", path.as_ref().display())))?;
        ReplayLog::from_bytes(&bytes)
    }
}

#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn word(&mut self, w: Word) {
        self.u8(w.tag().bits());
        self.u32(w.bits());
    }
    fn name(&mut self, s: &str) {
        assert!(s.len() <= u16::MAX as usize, "name too long");
        self.out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        self.out.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], LogError> {
        if self.pos + n > self.bytes.len() {
            return Err(LogError::new(format!(
                "truncated at byte {} (wanted {n} more)",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
    /// Capacity to reserve for `count` elements of at least `min_bytes`
    /// encoded bytes each: an on-disk count is untrusted, so it is capped
    /// by what the remaining input could hold (a corrupt count then ends
    /// in a truncation error instead of an allocation abort).
    fn capacity(&self, count: u32, min_bytes: usize) -> usize {
        (count as usize).min((self.bytes.len() - self.pos) / min_bytes)
    }
    fn u8(&mut self) -> Result<u8, LogError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, LogError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, LogError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn word(&mut self) -> Result<Word, LogError> {
        let tag = self.u8()?;
        let bits = self.u32()?;
        if tag >= 16 {
            return Err(LogError::new(format!("bad tag {tag}")));
        }
        Ok(Word::new(Tag::from_bits(tag), bits))
    }
    fn name(&mut self) -> Result<String, LogError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LogError::new("name not UTF-8"))
    }
}
