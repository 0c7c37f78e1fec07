//! Deterministic replay with divergence bisection.
//!
//! The repo's three engines (Naive, Event, Parallel with any thread count
//! and quantum) are held bit-identical by differential test suites — but
//! when a digest diff fails, a bare "digests differ" is undebuggable. This
//! crate turns any run into a **replay artifact**: a compact binary log
//! ([`ReplayLog`]) holding the machine configuration, the program image,
//! every host-boundary input, and per-interval state hashes. A reader
//! re-executes the log under any engine and reports the **first diverging
//! cycle and component** (e.g. `cycle 48211, router (3,1,2) vnet1
//! occupancy`), with an automatic interval-halving bisection ([`bisect`])
//! that narrows a coarse-interval hash mismatch down to a single cycle.
//!
//! The crate sits *below* `jm-machine` in the dependency order: it defines
//! the log format and the engine-agnostic verification/bisection
//! algorithms against the [`Execution`] trait, and `jm-machine` provides
//! the recorder and the concrete executor. This keeps the algorithms
//! testable in isolation and the format free of engine internals.

#![warn(missing_docs)]

mod log;

pub use crate::log::{
    HostOp, LogError, Record, RecordedConfig, ReplayLog, DEFAULT_INTERVAL, MAGIC,
};

use std::fmt;

/// One named component's state hash at some cycle. Labels are stable,
/// human-readable identifiers like `node 17 mem` or
/// `router (3,1,2) vnet1 occupancy`; the combined machine hash is the
/// in-order FNV-1a fold of exactly these component hashes, so a combined
/// mismatch always names at least one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentHash {
    /// Stable component label.
    pub label: String,
    /// FNV-1a fold of the component's architecturally-visible state.
    pub hash: u64,
}

/// A machine being driven through a replay log. Implemented by
/// `jm-machine`'s replayer; the driver below only needs these five
/// operations.
pub trait Execution {
    /// Current machine cycle.
    fn cycle(&self) -> u64;
    /// Advances the machine to exactly `cycle` (no-op if already there).
    /// Implementations must stop at exactly that cycle on every engine —
    /// single-cycle exactness is what makes bisection meaningful.
    fn advance_to(&mut self, cycle: u64);
    /// Applies one host-boundary input at the current cycle.
    fn apply(&mut self, op: &HostOp);
    /// Combined state hash at the current cycle.
    fn state_hash(&mut self) -> u64;
    /// Per-component state hashes at the current cycle, in the fixed
    /// order whose fold equals [`Execution::state_hash`].
    fn component_hashes(&mut self) -> Vec<ComponentHash>;
}

/// Builds fresh executions of a recorded run. Bisection restarts
/// executions from cycle 0 for each probe (machines are not cloneable),
/// so the factory is invoked `O(log interval)` times.
pub trait ExecFactory {
    /// A fresh machine at cycle 0, configured per the log header.
    fn build(&self, log: &ReplayLog) -> Box<dyn Execution>;
}

/// The first checkpoint where a re-execution's hash differed from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryMismatch {
    /// Cycle of the last checkpoint that still matched (0 if none did —
    /// both sides start from the same built machine state).
    pub prev_cycle: u64,
    /// Cycle of the first mismatching checkpoint.
    pub cycle: u64,
    /// Hash the log recorded at that checkpoint.
    pub logged: u64,
    /// Hash the re-execution computed.
    pub got: u64,
}

/// Outcome of a [`verify`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Checkpoints compared (stops at the first mismatch).
    pub checked: u64,
    /// Cycle the pass ended at.
    pub end_cycle: u64,
    /// The first mismatch, or `None` for a clean replay.
    pub mismatch: Option<BoundaryMismatch>,
}

impl VerifyReport {
    /// Whether the re-execution matched the log at every checkpoint.
    pub fn clean(&self) -> bool {
        self.mismatch.is_none()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.mismatch {
            None => write!(
                f,
                "clean replay: {} checkpoints matched through cycle {}",
                self.checked, self.end_cycle
            ),
            Some(m) => write!(
                f,
                "hash mismatch at checkpoint cycle {} (logged {:#018x}, got {:#018x}); \
                 last match at cycle {}",
                m.cycle, m.logged, m.got, m.prev_cycle
            ),
        }
    }
}

/// One component whose hash differed at the first diverging cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDiff {
    /// Component label (e.g. `router (3,1,2) vnet1 occupancy`).
    pub label: String,
    /// The reference execution's hash.
    pub reference: u64,
    /// The target execution's hash.
    pub target: u64,
}

/// What [`bisect`] concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The target replay matched every checkpoint.
    None,
    /// The target mismatched the log, but so did a fresh run under the
    /// *recorded* configuration — the log itself is wrong (corrupted, or
    /// the recording environment was nondeterministic). `cycle` is the
    /// first checkpoint the recorded configuration cannot reproduce.
    LogMismatch {
        /// First irreproducible checkpoint cycle.
        cycle: u64,
        /// Hash the log recorded there.
        logged: u64,
        /// Hash the recorded configuration reproduces.
        recomputed: u64,
    },
    /// Reference and target executions genuinely diverge.
    Diverged {
        /// First cycle at which the combined hashes differ.
        cycle: u64,
        /// The checkpoint interval the mismatch was narrowed from.
        interval: (u64, u64),
        /// Components whose hashes differ at `cycle`.
        components: Vec<ComponentDiff>,
    },
}

/// Outcome of a [`bisect`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// The conclusion.
    pub divergence: Divergence,
    /// Fresh executions built while narrowing (2 per halving probe).
    pub probes: u32,
}

impl fmt::Display for BisectReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            Divergence::None => write!(f, "no divergence"),
            Divergence::LogMismatch {
                cycle,
                logged,
                recomputed,
            } => write!(
                f,
                "log mismatch at cycle {cycle}: the recorded configuration reproduces \
                 {recomputed:#018x} but the log says {logged:#018x} (log corrupt, or the \
                 recording was nondeterministic)"
            ),
            Divergence::Diverged {
                cycle,
                interval,
                components,
            } => {
                write!(
                    f,
                    "first divergence at cycle {cycle} (bisected from checkpoint interval \
                     ({}, {}]):",
                    interval.0, interval.1
                )?;
                for c in components {
                    write!(
                        f,
                        "\n  cycle {cycle}, {} (reference {:#018x}, target {:#018x})",
                        c.label, c.reference, c.target
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// Replays `log` under `factory`'s configuration, comparing the machine's
/// state hash against every recorded checkpoint in order. Stops at the
/// first mismatch.
pub fn verify(log: &ReplayLog, factory: &dyn ExecFactory) -> VerifyReport {
    let mut exec = factory.build(log);
    let mut checked = 0;
    let mut prev_cycle = 0;
    for r in &log.records {
        match r {
            Record::Op { cycle, op } => {
                exec.advance_to(*cycle);
                exec.apply(op);
            }
            Record::Boundary { cycle, hash } | Record::End { cycle, hash } => {
                exec.advance_to(*cycle);
                let got = exec.state_hash();
                checked += 1;
                if got != *hash {
                    return VerifyReport {
                        checked,
                        end_cycle: *cycle,
                        mismatch: Some(BoundaryMismatch {
                            prev_cycle,
                            cycle: *cycle,
                            logged: *hash,
                            got,
                        }),
                    };
                }
                prev_cycle = *cycle;
            }
        }
    }
    VerifyReport {
        checked,
        end_cycle: exec.cycle(),
        mismatch: None,
    }
}

/// Builds a fresh execution and drives it through the log to exactly
/// `cycle`, applying every host op stamped at or before it (in recording
/// order). No checkpoint comparison happens — this is the probe primitive
/// bisection uses to sample machine state mid-interval.
pub fn state_at(log: &ReplayLog, factory: &dyn ExecFactory, cycle: u64) -> Box<dyn Execution> {
    let mut exec = factory.build(log);
    for r in &log.records {
        match r {
            Record::Op { cycle: c, op } => {
                if *c > cycle {
                    break;
                }
                exec.advance_to(*c);
                exec.apply(op);
            }
            Record::Boundary { cycle: c, .. } | Record::End { cycle: c, .. } => {
                if *c >= cycle {
                    break;
                }
            }
        }
    }
    exec.advance_to(cycle);
    exec
}

/// Verifies `target` against the log and, on mismatch, narrows the failure
/// to a single cycle and component set.
///
/// The algorithm: (1) [`verify`] the target; a clean pass is
/// [`Divergence::None`]. (2) Re-verify under `reference` (the *recorded*
/// configuration); if the reference cannot reproduce a checkpoint at or
/// before the target's first mismatch, the log itself is wrong —
/// [`Divergence::LogMismatch`] names that checkpoint's cycle exactly.
/// (3) Otherwise binary-search the mismatching checkpoint interval
/// `(a, b]`: each probe rebuilds both executions from cycle 0 and drives
/// them to the midpoint (every engine can stop on any exact cycle, so the
/// probe is bit-exact), until the first cycle where the combined hashes
/// differ; the per-component hash vectors at that cycle name the diverging
/// components.
pub fn bisect(
    log: &ReplayLog,
    reference: &dyn ExecFactory,
    target: &dyn ExecFactory,
) -> BisectReport {
    let tv = verify(log, target);
    let Some(tm) = tv.mismatch else {
        return BisectReport {
            divergence: Divergence::None,
            probes: 0,
        };
    };
    let rv = verify(log, reference);
    if let Some(rm) = rv.mismatch {
        if rm.cycle <= tm.cycle {
            return BisectReport {
                divergence: Divergence::LogMismatch {
                    cycle: rm.cycle,
                    logged: rm.logged,
                    recomputed: rm.got,
                },
                probes: 0,
            };
        }
    }
    // Hashes agree at tm.prev_cycle (both replays matched the log there)
    // and differ at tm.cycle. Halve until the bounds are adjacent.
    let (mut lo, mut hi) = (tm.prev_cycle, tm.cycle);
    let mut probes = 0;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let r = state_at(log, reference, mid).state_hash();
        let t = state_at(log, target, mid).state_hash();
        probes += 2;
        if r == t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let rc = state_at(log, reference, hi).component_hashes();
    let tc = state_at(log, target, hi).component_hashes();
    probes += 2;
    let components = rc
        .iter()
        .zip(tc.iter())
        .filter(|(r, t)| r.hash != t.hash || r.label != t.label)
        .map(|(r, t)| ComponentDiff {
            label: r.label.clone(),
            reference: r.hash,
            target: t.hash,
        })
        .collect();
    BisectReport {
        divergence: Divergence::Diverged {
            cycle: hi,
            interval: (tm.prev_cycle, tm.cycle),
            components,
        },
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jm_asm::Builder;
    use jm_isa::node::MeshDims;
    use jm_isa::word::Word;
    use jm_mdp::MdpConfig;
    use jm_net::NetConfig;

    fn sample_log() -> ReplayLog {
        let mut b = Builder::new();
        b.reserve("out", jm_asm::Region::Imem, 2);
        b.label("main");
        b.suspend();
        b.label("other");
        b.suspend();
        b.entry("main");
        let program = b.assemble().unwrap();
        let dims = MeshDims::new(2, 2, 2);
        ReplayLog {
            config: RecordedConfig {
                dims,
                start: 1,
                engine: 1,
                threads: 0,
                quantum: 0,
                mdp: MdpConfig::default(),
                net: NetConfig::new(dims),
            },
            fault: Some(
                jm_fault::FaultSpec::new(7)
                    .flaky(1000)
                    .checksums(true)
                    .window(jm_fault::FaultWindow::link_down(0, 2, 10, 20)),
            ),
            traffic: Some(
                jm_traffic::TrafficSpec::new(9)
                    .pattern(jm_traffic::TrafficPattern::Hotspot {
                        weight_ppm: 250_000,
                    })
                    .load(120_000)
                    .msg_words(3)
                    .window(5, 500)
                    .handler(17),
            ),
            interval: 16,
            program,
            records: vec![
                Record::Op {
                    cycle: 0,
                    op: HostOp::InstallVectorAll { kind: 0, ip: 1 },
                },
                Record::Op {
                    cycle: 0,
                    op: HostOp::Deliver {
                        node: 3,
                        priority: 0,
                        words: vec![Word::int(42), Word::NIL],
                    },
                },
                Record::Boundary {
                    cycle: 16,
                    hash: 0xdead_beef,
                },
                Record::Op {
                    cycle: 20,
                    op: HostOp::WriteWord {
                        node: 1,
                        addr: 0x100,
                        word: Word::int(-5),
                    },
                },
                Record::Boundary {
                    cycle: 32,
                    hash: 0x1234,
                },
                Record::End {
                    cycle: 40,
                    hash: 0x5678,
                },
            ],
        }
    }

    #[test]
    fn log_round_trips_through_bytes() {
        let log = sample_log();
        let bytes = log.to_bytes();
        let back = ReplayLog::from_bytes(&bytes).unwrap();
        assert_eq!(back.config, log.config);
        assert_eq!(back.fault, log.fault);
        assert_eq!(back.traffic, log.traffic);
        assert_eq!(back.interval, log.interval);
        assert_eq!(back.records, log.records);
        assert_eq!(back.program.code, log.program.code);
        assert_eq!(back.program.entry, log.program.entry);
        assert_eq!(back.program.code_base, log.program.code_base);
        assert_eq!(back.program.data, log.program.data);
        assert_eq!(back.program.symbols.len(), log.program.symbols.len());
        for (name, value) in log.program.symbols.iter() {
            assert_eq!(back.program.symbols.get(name), Some(value), "{name}");
        }
        // Serialization is canonical: a re-serialization is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncated_and_garbled_logs_error() {
        let bytes = sample_log().to_bytes();
        assert!(ReplayLog::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(ReplayLog::from_bytes(b"not a log").is_err());
    }

    #[test]
    fn corrupt_counts_error_instead_of_aborting() {
        let log = sample_log();
        let bytes = log.to_bytes();
        // The instruction-count field is the first byte that differs from
        // the same log with one instruction fewer.
        let mut shorter = log.clone();
        shorter.program.code.pop();
        let at = bytes
            .iter()
            .zip(shorter.to_bytes())
            .position(|(&a, b)| a != b)
            .expect("logs differ");
        let mut bad = bytes;
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ReplayLog::from_bytes(&bad).is_err());
    }

    #[test]
    fn interval_digests_compose() {
        let log = sample_log();
        let whole = log.interval_digest(0, 41);
        for split in [0, 16, 17, 32, 40, 41] {
            let left = log.interval_digest(0, split);
            let resumed = log.interval_digest_from(left, split, 41);
            assert_eq!(whole, resumed, "split at {split}");
        }
    }

    #[test]
    fn corrupt_checkpoint_flips_one_hash() {
        let mut log = sample_log();
        assert_eq!(log.corrupt_checkpoint(1), Some(32));
        assert!(matches!(
            log.records[4],
            Record::Boundary {
                cycle: 32,
                hash: 0x1235
            }
        ));
        assert_eq!(log.corrupt_checkpoint(3), None);
    }
}
