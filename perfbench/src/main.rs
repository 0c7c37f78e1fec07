//! The jmsim benchmark: one workload per process, timed from outside the
//! simulator crates, outputs checked, every metric printed by name and
//! unit. See `README.md` beside this package for the metric definitions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload apps64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the last line carries the end-to-end metrics of the
//! untraced pass. With `--trace 1` it carries the per-layer metrics: the
//! same untraced pass, then one repetition each with lifecycle tracing,
//! with replay capture, with bulk-advance off and on the other engine.

mod workload;

use std::process::ExitCode;
use std::time::Instant;

use jm_isa::instr::StatClass;
use jm_machine::{Engine, MachineStats};
use jm_trace::{Breakdown, Fnv1a};
use workload::{run_job, Job, JobOut, Variant, Workload};

/// Fewest repetitions of the timed pass, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-ups (build, boot, load; no simulation) before each timed
/// repetition. Spreading them over the whole pass keeps their median from
/// resting on one moment of host load.
const SETUPS_PER_REP: usize = 10;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: jm-perfbench --workload <apps64|exchange512|traffic512|ring512> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 30.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad)?),
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Totals of one repetition: every job of the workload under one variant.
#[derive(Default)]
struct Rep {
    /// Σ nodes × simulated cycles.
    node_cycles: u64,
    asm_s: f64,
    boot_s: f64,
    load_s: f64,
    run_s: f64,
    /// Host time of each simulated slice, job after job.
    slice_s: Vec<f64>,
    /// Counters summed over jobs (`cycles` too).
    stats: MachineStats,
    queue_refusals: u64,
    breakdown: Breakdown,
    log_bytes: u64,
}

impl Rep {
    fn add(&mut self, j: &JobOut) {
        self.node_cycles += j.nodes * j.stats.cycles;
        self.asm_s += j.asm_s;
        self.boot_s += j.boot_s;
        self.load_s += j.load_s;
        self.run_s += j.run_s;
        self.slice_s.extend(&j.slice_s);
        self.stats.cycles += j.stats.cycles;
        self.stats.nodes.merge(&j.stats.nodes);
        self.stats.net.merge(&j.stats.net);
        self.queue_refusals += j.queue_refusals;
        if let Some(b) = &j.breakdown {
            self.breakdown.net.merge(&b.net);
            self.breakdown.queue.merge(&b.queue);
            self.breakdown.handler.merge(&b.handler);
        }
        self.log_bytes += j.log_bytes;
    }

    fn setup_s(&self) -> f64 {
        self.asm_s + self.boot_s + self.load_s
    }
}

/// Operations attempted and failed so far, and the digest every
/// repetition must reproduce.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

/// Runs every job once under `v` (only its set-up unless `simulate`).
/// Returns `None` if any job failed its check or the repetition's digest
/// differs from the first one seen; both count as failed operations.
fn run_rep(jobs: &[Job], v: Variant, simulate: bool, tally: &mut Tally) -> Option<Rep> {
    let mut rep = Rep::default();
    let mut h = Fnv1a::new();
    let mut ok = true;
    for job in jobs {
        tally.attempted += 1;
        match run_job(job, v, simulate) {
            Ok(out) => {
                h.write_u64(out.digest);
                rep.add(&out);
            }
            Err(e) => {
                eprintln!("FAILED {job:?} under {v:?}: {e}");
                tally.failed += 1;
                ok = false;
            }
        }
    }
    if !ok {
        return None;
    }
    if !simulate {
        return Some(rep);
    }
    // The determinism guard is one more operation per repetition.
    tally.attempted += 1;
    let digest = h.finish();
    match tally.digest {
        None => tally.digest = Some(digest),
        Some(d) if d != digest => {
            eprintln!("FAILED determinism under {v:?}: digest {digest:016x}, first {d:016x}");
            tally.failed += 1;
            return None;
        }
        Some(_) => {}
    }
    Some(rep)
}

/// Repeats the workload for at least `seconds` and [`MIN_REPS`] times,
/// with [`SETUPS_PER_REP`] set-ups before each repetition. Returns the
/// set-ups and the repetitions.
fn timed_pass(jobs: &[Job], v: Variant, seconds: f64, tally: &mut Tally) -> (Vec<Rep>, Vec<Rep>) {
    let start = Instant::now();
    let (mut setups, mut reps) = (Vec::new(), Vec::new());
    let mut tries = 0;
    while tries < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        tries += 1;
        for _ in 0..SETUPS_PER_REP {
            setups.extend(run_rep(jobs, v, false, tally));
        }
        reps.extend(run_rep(jobs, v, true, tally));
    }
    (setups, reps)
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The simulation time per repetition that `node_cycles_per_s` and the
/// `ns_per_*` figures divide by.
///
/// One thread: for each slice of simulated cycles its fastest time over
/// `reps`, summed. Every repetition simulates the same slices (the
/// determinism guard holds them to the same cycle counts), and another
/// tenant of the host can only make a slice slower, never faster.
///
/// A crew of several threads: the median repetition. A slice only runs at
/// its undisturbed speed when every crew thread is undisturbed at once, and
/// the fastest times of such rare stretches vary from run to run far more
/// than the median does.
fn sim_s(reps: &[Rep], crew: bool) -> f64 {
    if crew {
        return median(reps.iter().map(|r| r.run_s).collect());
    }
    let slices = reps.first().map_or(0, |r| r.slice_s.len());
    (0..slices)
        .map(|k| {
            reps.iter()
                .filter_map(|r| r.slice_s.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A reported value: measured (full precision) or an exact count.
enum Value {
    Real(f64),
    Count(u64),
}

struct Metrics(Vec<(&'static str, Value, &'static str)>);

impl Metrics {
    fn real(&mut self, name: &'static str, v: f64, unit: &'static str) {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((name, Value::Real(v), unit));
    }

    fn count(&mut self, name: &'static str, v: u64, unit: &'static str) {
        self.0.push((name, Value::Count(v), unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = match v {
                    Value::Real(x) => format!("{x:?}"),
                    Value::Count(n) => n.to_string(),
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// End-to-end metrics of the set-ups and the untraced pass.
fn end_to_end(setups: &[Rep], reps: &[Rep], crew: bool, m: &mut Metrics) {
    let first = reps.first();
    let node_cycles = first.map_or(0, |r| r.node_cycles);
    let instructions = first.map_or(0, |r| r.stats.nodes.instructions);
    m.real(
        "node_cycles_per_s",
        ratio(node_cycles as f64, sim_s(reps, crew)),
        "node-cyc/s",
    );
    m.real(
        "setup_s",
        median(setups.iter().map(Rep::setup_s).collect()),
        "s",
    );
    m.real("peak_rss_mib", peak_rss_mib(), "MiB");
    m.count("sim_cycles", first.map_or(0, |r| r.stats.cycles), "cyc");
    m.real(
        "sim_instr_per_node_cycle",
        ratio(instructions as f64, node_cycles as f64),
        "instr/node-cyc",
    );
}

/// The comparison repetitions of the traced invocation.
struct Extras {
    traced: Option<Rep>,
    captured: Option<Rep>,
    bulk_off: Option<Rep>,
    /// Event engine run time (from the base pass or the other-engine rep).
    event_run_s: Option<f64>,
    /// Parallel engine run time.
    parallel_run_s: Option<f64>,
}

/// Per-layer metrics: host time of each layer from the set-ups and the
/// untraced pass, exact counts, and the comparison repetitions.
fn per_layer(setups: &[Rep], reps: &[Rep], crew: bool, x: &Extras, m: &mut Metrics) {
    let setup = |f: fn(&Rep) -> f64| median(setups.iter().map(f).collect());
    let run_s = median(reps.iter().map(|r| r.run_s).collect());
    let empty = Rep::default();
    let first = reps.first().unwrap_or(&empty);
    let s = &first.stats;
    let n = &s.nodes;
    let sim_s = sim_s(reps, crew);
    let ns = |count: u64| ratio(sim_s * 1e9, count as f64);
    let overhead = |rep: &Option<Rep>, base: Option<f64>| {
        rep.as_ref()
            .map_or(0.0, |r| ratio(r.run_s, base.unwrap_or(0.0)) - 1.0)
    };

    m.real("asm.build_s", setup(|r| r.asm_s), "s");
    m.real("machine.boot_s", setup(|r| r.boot_s), "s");
    m.real("machine.run_s", run_s, "s");
    m.real("machine.ns_per_cycle", ns(s.cycles), "ns");
    m.real(
        "machine.parallel_speedup",
        ratio(
            x.event_run_s.unwrap_or(0.0),
            x.parallel_run_s.unwrap_or(0.0),
        ),
        "x",
    );
    m.real("mdp.load_s", setup(|r| r.load_s), "s");
    m.real("mdp.ns_per_instr", ns(n.instructions), "ns");
    m.count("mdp.instructions", n.instructions, "count");
    m.count("mdp.dispatches", n.threads, "count");
    m.count("mdp.send_faults", n.send_faults, "count");
    m.count("mdp.arrival_stalls", n.arrival_stalls, "count");
    m.count("mdp.queue_refusals", first.queue_refusals, "count");
    // A run without lookups has missed none.
    let hits = n.xlates - n.xlate_misses;
    m.real(
        "mdp.xlate_hit_ratio",
        if n.xlates == 0 {
            1.0
        } else {
            hits as f64 / n.xlates as f64
        },
        "ratio",
    );
    const FRACS: [(&str, StatClass); 7] = [
        ("mdp.frac.compute", StatClass::Compute),
        ("mdp.frac.comm", StatClass::Comm),
        ("mdp.frac.sync", StatClass::Sync),
        ("mdp.frac.xlate", StatClass::Xlate),
        ("mdp.frac.nnr", StatClass::NnrCalc),
        ("mdp.frac.dispatch", StatClass::Dispatch),
        ("mdp.frac.idle", StatClass::Idle),
    ];
    for (name, class) in FRACS {
        m.real(name, s.class_fraction(class), "ratio");
    }
    let net = &s.net;
    m.real("net.ns_per_flit_hop", ns(net.flit_hops), "ns");
    m.real(
        "net.bulk_speedup",
        x.bulk_off.as_ref().map_or(0.0, |r| ratio(r.run_s, run_s)),
        "x",
    );
    m.count("net.flit_hops", net.flit_hops, "count");
    m.count("net.delivered_msgs", net.delivered_msgs, "count");
    m.real("net.latency_mean_cyc", net.mean_latency(), "cyc");
    m.count("net.latency_max_cyc", net.latency_max, "cyc");
    let t = &net.traffic;
    m.count("traffic.offered_msgs", t.offered_msgs, "count");
    // Nothing offered is nothing refused.
    m.real(
        "traffic.accept_ratio",
        if t.offered_msgs == 0 {
            1.0
        } else {
            t.accepted_msgs as f64 / t.offered_msgs as f64
        },
        "ratio",
    );
    m.real(
        "trace.overhead",
        overhead(&x.traced, x.event_run_s),
        "ratio",
    );
    let b = x.traced.as_ref().map_or(&empty.breakdown, |r| &r.breakdown);
    m.real("trace.t_net_mean_cyc", b.net.mean(), "cyc");
    m.real("trace.t_queue_mean_cyc", b.queue.mean(), "cyc");
    m.count("trace.t_queue_p99_cyc", b.queue.quantile(0.99), "cyc");
    m.real("trace.t_handler_mean_cyc", b.handler.mean(), "cyc");
    m.real(
        "replay.capture_overhead",
        overhead(&x.captured, Some(run_s)),
        "ratio",
    );
    m.count(
        "replay.log_bytes",
        x.captured.as_ref().map_or(0, |r| r.log_bytes),
        "B",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Two crew threads where the host has them; never more than it has.
    let threads = host_cpus.min(2) as u32;
    let oversubscribed = w == Workload::Exchange512 && host_cpus < 2;
    let engine = w.engine(threads);
    let crew = matches!(engine, Engine::Parallel(t) if t > 1);
    let jobs = w.jobs(args.seed);

    let plain = Variant::plain(engine);
    let mut tally = Tally::default();
    let (setups, reps) = timed_pass(&jobs, plain, args.seconds, &mut tally);
    let mut metrics = Metrics(Vec::new());
    if args.trace {
        let base_run_s = median(reps.iter().map(|r| r.run_s).collect());
        let mut rep = |v| run_rep(&jobs, v, true, &mut tally);
        let traced = rep(Variant {
            traced: true,
            ..Variant::plain(Engine::Event)
        });
        let captured = rep(Variant {
            capture: true,
            ..plain
        });
        let bulk_off = rep(Variant {
            bulk: false,
            ..plain
        });
        let (event_run_s, parallel_run_s) = if engine == Engine::Event {
            let par = rep(Variant::plain(Engine::Parallel(threads)));
            (Some(base_run_s), par.map(|r| r.run_s))
        } else {
            let event = rep(Variant::plain(Engine::Event));
            (event.map(|r| r.run_s), Some(base_run_s))
        };
        let extras = Extras {
            traced,
            captured,
            bulk_off,
            event_run_s,
            parallel_run_s,
        };
        per_layer(&setups, &reps, crew, &extras, &mut metrics);
    } else {
        end_to_end(&setups, &reps, crew, &mut metrics);
    }

    let run_s: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.run_s)).collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"engine\": \"{engine:?}\", \"host_cpus\": {host_cpus}, \
         \"oversubscribed\": {oversubscribed}, \"digest\": \"{:016x}\", \"slices\": {}, \
         \"sim_s\": {:.4}, \"run_s\": [{}]}}",
        w.name(),
        args.seed.map_or("null".to_string(), |s| s.to_string()),
        tally.digest.unwrap_or(0),
        reps.first().map_or(0, |r| r.slice_s.len()),
        sim_s(&reps, crew),
        run_s.join(", "),
    );
    for (name, v, unit) in &metrics.0 {
        match v {
            Value::Real(x) => println!("{name:<28} {x:>18.6} {unit}"),
            Value::Count(n) => println!("{name:<28} {n:>18} {unit}"),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && !reps.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
