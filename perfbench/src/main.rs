//! One workload, one process, on one of two paths:
//!
//! * plain repetition `k` — the end-to-end path: build and preload a
//!   fresh system, then run measurement window `k` with the clocks (the
//!   thread's CPU time, and the wall clock around the window) read only
//!   around the set-up and the window. `run.py` runs the
//!   repetitions `0..reps` each in a process of its own.
//! * `traced` — the same system built once, the preload as the
//!   benchmark's own timed loop, window 0 again with every adapter call
//!   timed, then the per-layer probes.
//!
//! Usage: `perfbench <workload> <seed> <seconds> <k>|traced <out-dir>`.
//! Prints one JSON object on stdout; `run.py` turns the paths' objects
//! into the benchmark's metrics and checks them against each other. A
//! broken internal invariant panics, so the process exits non-zero.

mod probes;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use workloads::{StoreStats, Window, Workload};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 6 {
        eprintln!("usage: perfbench <workload> <seed> <seconds> <k>|traced <out-dir>");
        std::process::exit(2);
    }
    let Some(w) = Workload::parse(&args[1]) else {
        eprintln!("unknown workload {:?}", args[1]);
        std::process::exit(2);
    };
    let seed: u64 = args[2].parse().expect("seed is an unsigned integer");
    let seconds: f64 = args[3].parse().expect("seconds is a number");
    let json = match (args[4].as_str(), args[4].parse::<u64>()) {
        ("traced", _) => traced(w, seed, Path::new(&args[5])),
        (_, Ok(k)) => plain(w, seed, seconds, k),
        (other, Err(_)) => {
            eprintln!("unknown path {other:?}");
            std::process::exit(2);
        }
    };
    println!("{json}");
}

fn plain(w: Workload, seed: u64, seconds: f64, k: u64) -> String {
    let c0 = workloads::thread_cpu_s();
    let sys = workloads::build(w);
    workloads::preload(&sys);
    let setup_s = workloads::thread_cpu_s() - c0;
    let store_setup = workloads::store_stats(&sys);
    let win = workloads::run_window(&sys, w, seed, k, false);
    let store_run = workloads::store_stats(&sys);
    let readback = readback_json(workloads::readback(&sys, seed));
    // The CPU-time figures above cover this thread only, so it must have
    // done all of the work.
    assert_eq!(threads(), 1, "the system under test started a thread");
    format!(
        "{{\"path\":\"plain\",\"reps\":{},\"setup_s\":{setup_s},\"store_setup\":{},\"window\":{},\
         \"store_run\":{},\"readback\":{readback},\"peak_rss_mb\":{}}}",
        w.reps(seconds),
        store_json(store_setup),
        window_json(&win),
        store_json(store_run),
        peak_rss_mb()
    )
}

fn traced(w: Workload, seed: u64, out_dir: &Path) -> String {
    let t0 = Instant::now();
    let sys = workloads::build(w);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let quarters = workloads::preload_traced(&sys);
    let preload_s = t1.elapsed().as_secs_f64();
    let store_setup = workloads::store_stats(&sys);
    let win = workloads::run_window(&sys, w, seed, 0, true);
    let store_run = workloads::store_stats(&sys);
    let readback = readback_json(workloads::readback(&sys, seed));
    let peak_rss = peak_rss_mb();

    // The end-to-end numbers are in; now the probes.
    let rec = win.rec.borrow();
    std::fs::create_dir_all(out_dir).expect("create the trace directory");
    let spans_path = out_dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    rec.write_spans(&spans_path).expect("write spans");
    let wire = probes::wire(&rec.requests, &rec.replies, rec.sampled_ops);
    let core = probes::core(&sys, seed);
    let rdma = probes::rdma(&sys, seed);
    let simnet_ns = probes::simnet(seed);

    let mut o = String::new();
    write!(
        o,
        "{{\"path\":\"traced\",\"build_s\":{build_s},\"preload_s\":{preload_s},\"quarters\":{},\
         \"store_setup\":{},\"window\":{},\"self_ns\":{},\"window_self_ns\":{},\
         \"store_run\":{},\"readback\":{readback},\"peak_rss_mb\":{peak_rss},\
         \"wire\":{{\"encode_ns\":{},\"decode_ns\":{},\"bytes_per_op\":{}}},",
        quarters.map_or("null".to_string(), |q| list(&q)),
        store_json(store_setup),
        window_json(&win),
        rec.self_ns,
        rec.window_self_ns,
        store_json(store_run),
        wire.encode_ns,
        wire.decode_ns,
        wire.bytes_per_op,
    )
    .expect("write to String");
    write!(
        o,
        "\"core\":{{\"get_ws_ns\":{},\"get_hot_ns\":{},\"put_ws_ns\":{}}},\
         \"rdma\":{{\"read512_ws_ns\":{},\"read512_hot_ns\":{}}},\"simnet_ns_per_event\":{simnet_ns}}}",
        core.get_ws_ns,
        core.get_hot_ns,
        core.put_ws_ns,
        rdma.read512_ws_ns,
        rdma.read512_hot_ns
    )
    .expect("write to String");
    o
}

fn window_json(win: &Window) -> String {
    let r = win.rec.borrow();
    format!(
        "{{\"wall_s\":{},\"cpu_s\":{},\"completed\":{},\"failed\":{},\"backlogged\":{},\"tput_mops\":{},\
         \"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"replies\":{},\"sends\":{},\"bg_sends\":{},\
         \"backoffs\":{},\"retries\":{},\"slot_opens\":{}}}",
        win.wall_s,
        win.cpu_s,
        win.completed,
        win.failed,
        win.backlogged,
        win.tput_mops,
        win.mean_us,
        win.p50_us,
        win.p99_us,
        win.p999_us,
        r.window.replies,
        r.window.sends,
        r.window.bg_sends,
        r.window.backoffs,
        r.window.retries,
        r.slot_opens
    )
}

/// `{"checked": n}` or `{"error": "..."}`.
fn readback_json(r: Result<u64, String>) -> String {
    match r {
        Ok(n) => format!("{{\"checked\":{n}}}"),
        Err(e) => format!(
            "{{\"error\":\"{}\"}}",
            e.replace('\\', "\\\\").replace('"', "\\\"")
        ),
    }
}

fn store_json(s: StoreStats) -> String {
    format!(
        "{{\"sealed\":{},\"records\":{},\"disk_bytes\":{}}}",
        s.sealed, s.records, s.disk_bytes
    )
}

fn list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Threads in this process (`Threads:` of /proc/self/status).
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status has a Threads: line")
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
