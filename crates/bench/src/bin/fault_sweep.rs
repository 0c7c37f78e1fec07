//! Fault-injection degradation sweep: goodput, completion-time inflation,
//! and retry cost vs. fault rate.
//!
//! Usage: `fault_sweep [--seed S] [--out PATH] [--digest PATH] [--threads N]`
//!
//! Runs the three `jm_bench::faultb` sweeps under one fault-plan seed,
//! prints the curves, gates on weak monotonicity (goodput must not rise
//! and LCS completion time must not fall as the fault rate grows — exit
//! code 1 on violation), and writes `BENCH_fault.json`. `--digest`
//! additionally writes a deterministic fingerprint: an FNV-1a hash over
//! the per-point simulated counters, so CI can diff a plain run against a
//! `--threads 4` run and prove the fault paths schedule-independent.

use jm_bench::faultb;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = arg("--seed").map_or(7, |s| s.parse().expect("--seed takes a number"));
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_fault.json".to_string());
    let digest_path = arg("--digest");
    if let Some(t) = arg("--threads") {
        let t: u32 = t.parse().expect("--threads takes a worker count");
        jm_machine::Engine::set_default(jm_machine::Engine::Parallel(t));
        println!("running the sweep under Engine::Parallel({t})");
    }

    let report = faultb::sweep(seed, 20_000);
    print!("{}", report.render());

    std::fs::write(&out_path, report.json()).expect("write BENCH_fault.json");
    println!("\nwrote {out_path}");

    if let Some(path) = digest_path {
        let stats_hash = jm_trace::fnv1a(report.digest_lines().as_bytes());
        let fingerprint = format!("jm-fault-digest v1\nstats {stats_hash:016x}\n");
        std::fs::write(&path, &fingerprint).expect("write digest");
        print!("{fingerprint}");
    }

    if let Err(violations) = report.check_monotone() {
        eprintln!("\ndegradation curves violate weak monotonicity:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("degradation curves are weakly monotone");
}
