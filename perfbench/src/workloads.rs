//! The three workloads: how each system is built and preloaded, one
//! measurement window, and the post-run output checks. Everything goes
//! through the harness's public entry points (system constructors,
//! `preload_prism`, `run_open_loop`, `run_closed_loop`, the protocol
//! adapter constructors, `execute_local`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use prism_core::msg::{execute_local, Reply, Request};
use prism_core::PrismServer;
use prism_harness::adapters::{PrismKvAdapter, PrismRsAdapter, PrismTxAdapter};
use prism_harness::kv_exp::preload_prism;
use prism_harness::netsim::{run_closed_loop, ProtoAdapter, RecoveryHooks, VerbPath};
use prism_harness::openloop::{run_open_loop, AdapterFactory, OpenLoopConfig, CONNECTION_BUDGET};
use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{PrismKvClient, PrismKvConfig, PrismKvServer};
use prism_kv::{KvOutcome, KvStep};
use prism_rs::prism_rs::drive;
use prism_rs::{RsCluster, RsConfig, RsOutcome};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::metrics::Histogram;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_store::SegmentStore;
use prism_tx::{TxCluster, TxConfig};
use prism_workload::openloop::ArrivalSpec;
use prism_workload::ycsb::{value_bytes, YcsbConfig};
use prism_workload::{KeyDist, TxnGen};

use crate::trace::{quantile_us, Recorder};

/// PRISM-KV and PRISM-TX key count (the figure configs' 262,144).
pub const KV_KEYS: u64 = 262_144;
/// Value / block bytes everywhere.
pub const VALUE_LEN: usize = 512;
/// PRISM-RS blocks per replica.
pub const RS_BLOCKS: u64 = 65_536;
/// Keys per preload quarter.
const QUARTER: u64 = KV_KEYS / 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvRead,
    TxContended,
    RsQuorum,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::KvRead,
        Workload::TxContended,
        Workload::RsQuorum,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv-read-1m",
            Workload::TxContended => "tx-contended",
            Workload::RsQuorum => "rs-quorum",
        }
    }

    /// Warm-up and measurement windows of simulated time.
    fn windows(self) -> (SimDuration, SimDuration) {
        match self {
            Workload::KvRead => (SimDuration::millis(1), SimDuration::millis(200)),
            Workload::TxContended => (SimDuration::millis(2), SimDuration::millis(50)),
            Workload::RsQuorum => (SimDuration::millis(1), SimDuration::millis(20)),
        }
    }

    fn load(self) -> Load {
        match self {
            Workload::KvRead => Load::Open { rate: 6e6 },
            Workload::TxContended => Load::Closed { clients: 64 },
            // Open, not closed: a saturated closed loop over constant
            // service costs runs the same schedule for every seed, so its
            // tail quantiles would not depend on the inputs at all.
            Workload::RsQuorum => Load::Open { rate: 3e6 },
        }
    }

    /// Plain repetitions (one window each) in a run: enough that they
    /// measure about `seconds` on the reference host (Xeon, 2 vCPUs), and
    /// at least three for a median. The count depends only on the
    /// arguments, never on how fast this run happens to go.
    pub fn reps(self, seconds: f64) -> u64 {
        (seconds / self.nominal_window_s()).ceil().max(3.0) as u64
    }

    /// Nominal wall seconds of one window on the reference host.
    fn nominal_window_s(self) -> f64 {
        match self {
            Workload::KvRead => 3.4,
            Workload::TxContended => 1.25,
            Workload::RsQuorum => 1.3,
        }
    }
}

/// How a workload offers load.
enum Load {
    /// Poisson arrivals at `rate` ops/s from 10⁶ logical clients on 16
    /// aggregates, at most the connection budget in flight.
    Open { rate: f64 },
    /// Closed-loop clients, each issuing its next op when the last ends.
    Closed { clients: usize },
}

pub enum System {
    Kv(PrismKvServer),
    Rs(RsCluster),
    Tx(TxCluster),
}

/// Builds the workload's system, empty. Spare buffers cover client-side
/// free batching for every client that can be live at once (as the
/// `*_exp` modules size them).
pub fn build(w: Workload) -> Rc<System> {
    let live = match w.load() {
        Load::Open { .. } => CONNECTION_BUDGET as u64,
        Load::Closed { clients } => clients as u64,
    };
    let spares = 32 * (live + 16);
    Rc::new(match w {
        Workload::KvRead => {
            let mut cfg = PrismKvConfig::paper(KV_KEYS, VALUE_LEN);
            for class in &mut cfg.classes {
                class.count += spares;
            }
            System::Kv(PrismKvServer::new(&cfg))
        }
        Workload::TxContended => {
            let mut cfg = TxConfig::paper(KV_KEYS, VALUE_LEN as u64);
            cfg.spare_buffers += spares;
            System::Tx(TxCluster::new(1, &cfg))
        }
        Workload::RsQuorum => {
            let mut cfg = RsConfig::paper(RS_BLOCKS, VALUE_LEN as u64);
            cfg.spare_buffers += spares;
            System::Rs(RsCluster::new(3, &cfg))
        }
    })
}

/// The YCSB load phase through the harness (KV only; the RS and TX
/// constructors already hold their initial values).
pub fn preload(sys: &System) {
    if let System::Kv(kv) = sys {
        preload_prism(kv, KV_KEYS, VALUE_LEN);
    }
}

/// The same load phase as a loop of public client calls, timed per
/// quarter of the key space. Returns the four quarter times in seconds.
pub fn preload_traced(sys: &System) -> Option<[f64; 4]> {
    let System::Kv(kv) = sys else {
        return None;
    };
    let client = kv.open_client();
    let mut quarters = [0.0; 4];
    for (q, slot) in quarters.iter_mut().enumerate() {
        let t0 = Instant::now();
        for k in q as u64 * QUARTER..(q as u64 + 1) * QUARTER {
            let (op, req) = client.put(&key_bytes(k), &value_bytes(k, 0, VALUE_LEN));
            let out = kv_drive(kv.server(), &client, op, req);
            assert!(
                matches!(out, KvOutcome::Written),
                "preload PUT of key {k} failed: {out:?}"
            );
        }
        *slot = t0.elapsed().as_secs_f64();
    }
    Some(quarters)
}

/// Drives one KV machine to completion against the server, executing
/// its fire-and-forget reclamation too.
pub fn kv_drive<M: KvMachine>(
    server: &PrismServer,
    client: &PrismKvClient,
    mut op: M,
    req: Request,
) -> KvOutcome {
    let mut reply = execute_local(server, &req);
    loop {
        match op.step(client, reply) {
            KvStep::Send {
                request,
                background,
            } => {
                if let Some(b) = background {
                    execute_local(server, &b);
                }
                reply = execute_local(server, &request);
            }
            KvStep::Done {
                outcome,
                background,
            } => {
                if let Some(b) = background {
                    execute_local(server, &b);
                }
                return outcome;
            }
        }
    }
}

/// The two KV client machines share this driver shape.
pub trait KvMachine {
    fn step(&mut self, client: &PrismKvClient, reply: Reply) -> KvStep;
}

impl KvMachine for prism_kv::prism_kv::GetOp {
    fn step(&mut self, client: &PrismKvClient, reply: Reply) -> KvStep {
        self.on_reply(client, reply)
    }
}

impl KvMachine for prism_kv::prism_kv::PutOp {
    fn step(&mut self, client: &PrismKvClient, reply: Reply) -> KvStep {
        self.on_reply(client, reply)
    }
}

pub fn servers(sys: &System) -> Vec<Arc<PrismServer>> {
    match sys {
        System::Kv(kv) => vec![Arc::clone(kv.server())],
        System::Rs(rs) => (0..rs.n())
            .map(|i| Arc::clone(rs.replica(i).server()))
            .collect(),
        System::Tx(tx) => (0..tx.n_shards())
            .map(|i| Arc::clone(tx.shard(i).server()))
            .collect(),
    }
}

fn stores(sys: &System) -> Vec<&Arc<SegmentStore>> {
    match sys {
        System::Kv(kv) => vec![kv.store()],
        System::Rs(rs) => (0..rs.n()).map(|i| rs.replica(i).store()).collect(),
        System::Tx(_) => Vec::new(),
    }
}

/// Durable-tier totals across the system's segment logs.
#[derive(Clone, Copy, Default)]
pub struct StoreStats {
    pub sealed: u64,
    pub records: u64,
    pub disk_bytes: u64,
}

pub fn store_stats(sys: &System) -> StoreStats {
    let mut s = StoreStats::default();
    for st in stores(sys) {
        let sealed = st.sealed();
        s.sealed += sealed.len() as u64;
        s.records += sealed.iter().map(|seg| seg.records as u64).sum::<u64>();
        let disk = st.disk();
        s.disk_bytes += disk
            .list("")
            .iter()
            .map(|name| disk.len(name).unwrap_or(0) as u64)
            .sum::<u64>();
    }
    s
}

/// What one measurement window produced.
pub struct Window {
    pub wall_s: f64,
    /// CPU time this thread spent on the window (`thread_cpu_s`).
    pub cpu_s: f64,
    /// Completed ops inside the window, as the harness counted them.
    pub completed: u64,
    /// Failed ops (given-up and shed included), as the harness counted.
    pub failed: u64,
    pub backlogged: u64,
    pub tput_mops: f64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub rec: Rc<RefCell<Recorder>>,
}

/// Seconds this thread has run on a CPU, from the scheduler's own
/// nanosecond account (`/proc/thread-self/schedstat`, first field). Time
/// the thread waits for a CPU, as on a shared host, is not in it.
pub fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the run time in ns");
    ns as f64 / 1e9
}

/// Window `k`'s seed: window 0 runs at the run's own seed.
fn window_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one measurement window against the system, every adapter
/// wrapped by a recorder (`timed` selects wall-clock spans), and checks
/// the wrapper's counts against the harness's.
pub fn run_window(sys: &Rc<System>, w: Workload, seed: u64, k: u64, timed: bool) -> Window {
    let (warmup, measure) = w.windows();
    let seed = window_seed(seed, k);
    let rec = Recorder::new(timed, SimTime::ZERO + warmup);
    let servers = servers(sys);
    let model = CostModel::testbed();
    let faults = FaultPlan::default();
    let win = match w.load() {
        Load::Open { rate } => {
            let cfg = OpenLoopConfig {
                arrivals: ArrivalSpec::Poisson { rate_per_sec: rate },
                logical_clients: 1_000_000,
                max_inflight: CONNECTION_BUDGET,
                actors: 16,
                warmup,
                measure,
                seed,
                faults,
            };
            let (sys2, rec2) = (Rc::clone(sys), Rc::clone(&rec));
            let factory: AdapterFactory = Rc::new(RefCell::new(move |i: usize| {
                Recorder::wrap(&rec2, adapter(&sys2, seed, i))
            }));
            let c0 = thread_cpu_s();
            let t0 = Instant::now();
            let r = run_open_loop(
                &servers,
                &model,
                VerbPath::Nic,
                &cfg,
                factory,
                &RecoveryHooks::default(),
            );
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = thread_cpu_s() - c0;
            let (p50_us, p99_us, p999_us) = if r.backlogged == 0 {
                // No arrival queued, so op start is the intended arrival
                // and the wrapper's stamps must rebuild the harness's
                // histogram exactly.
                let h = histogram(&rec);
                check_eq("open-loop mean", h.mean_micros(), r.mean_us);
                check_eq("open-loop p50", h.quantile_micros(0.5), r.p50_us);
                check_eq("open-loop p99", h.quantile_micros(0.99), r.p99_us);
                check_eq("open-loop p99.9", h.quantile_micros(0.999), r.p999_us);
                exact_quantiles(&rec)
            } else {
                // Queued arrivals wait before the adapter sees them; only
                // the harness's histogram covers that wait.
                (r.p50_us, r.p99_us, r.p999_us)
            };
            Window {
                wall_s,
                cpu_s,
                completed: r.completed,
                failed: r.failed,
                backlogged: r.backlogged,
                tput_mops: r.tput_ops / 1e6,
                mean_us: r.mean_us,
                p50_us,
                p99_us,
                p999_us,
                rec,
            }
        }
        Load::Closed { clients } => {
            let rec2 = Rc::clone(&rec);
            let mut mk = |i: usize| Recorder::wrap(&rec2, adapter(sys, seed, i));
            let c0 = thread_cpu_s();
            let t0 = Instant::now();
            let r = run_closed_loop(
                &servers,
                &model,
                VerbPath::Nic,
                clients,
                &mut mk,
                warmup,
                measure,
                seed,
                &faults,
            );
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_s = thread_cpu_s() - c0;
            let h = histogram(&rec);
            check_eq("closed-loop mean", h.mean_micros(), r.mean_us);
            check_eq("closed-loop p99", h.quantile_micros(0.99), r.p99_us);
            assert_eq!(
                rec.borrow().window.backoffs,
                r.backoffs,
                "wrapper and harness disagree on backoffs"
            );
            let (p50_us, p99_us, p999_us) = exact_quantiles(&rec);
            Window {
                wall_s,
                cpu_s,
                completed: (r.tput_ops * measure.as_micros_f64() / 1e6).round() as u64,
                failed: r.failed,
                backlogged: 0,
                tput_mops: r.tput_ops / 1e6,
                mean_us: r.mean_us,
                p50_us,
                p99_us,
                p999_us,
                rec,
            }
        }
    };
    {
        let r = win.rec.borrow();
        assert_eq!(
            r.window.ops, win.completed,
            "wrapper counted {} ops in the window, harness {}",
            r.window.ops, win.completed
        );
        assert_eq!(
            r.window.failed, win.failed,
            "wrapper counted {} failed ops, harness {}",
            r.window.failed, win.failed
        );
    }
    // Hang up every connection so the checks and probes reopen from the
    // recycled pool, as `sweep_rates` does between points; TX also
    // reclaims prepares the window's end left dangling (two sweeps: a
    // prepare is reclaimed once it survives a sweep unchanged).
    for s in &servers {
        s.close_all_connections();
    }
    if let System::Tx(tx) = &**sys {
        tx.sweep_shard(0);
        tx.sweep_shard(0);
    }
    win
}

/// The protocol adapter for slot or client `i`.
fn adapter(sys: &System, seed: u64, i: usize) -> Box<dyn ProtoAdapter> {
    match sys {
        System::Kv(kv) => Box::new(PrismKvAdapter::new(
            kv.open_client(),
            YcsbConfig {
                dist: KeyDist::uniform(KV_KEYS),
                read_fraction: 1.0,
                value_len: VALUE_LEN,
            },
            SimRng::new(seed ^ ((i as u64 + 1) * 7919)),
        )),
        System::Rs(rs) => Box::new(PrismRsAdapter::new(
            rs.open_client(),
            KeyDist::uniform(RS_BLOCKS),
            VALUE_LEN,
            0.5,
        )),
        System::Tx(tx) => Box::new(PrismTxAdapter::new(
            tx.open_client(),
            TxnGen::new(
                KeyDist::zipf(KV_KEYS, 0.9),
                1,
                VALUE_LEN,
                SimRng::new(seed ^ ((i as u64 + 1) * 31)),
            ),
        )),
    }
}

fn check_eq(what: &str, wrapper: f64, harness: f64) {
    assert!(
        wrapper.to_bits() == harness.to_bits(),
        "{what}: wrapper {wrapper} != harness {harness}"
    );
}

fn histogram(rec: &Rc<RefCell<Recorder>>) -> Histogram {
    let mut h = Histogram::new();
    for &ns in &rec.borrow().window.lat_ns {
        h.record(SimDuration::from_nanos(ns));
    }
    h
}

fn exact_quantiles(rec: &Rc<RefCell<Recorder>>) -> (f64, f64, f64) {
    let mut lat = rec.borrow().window.lat_ns.clone();
    lat.sort_unstable();
    (
        quantile_us(&lat, 0.5),
        quantile_us(&lat, 0.99),
        quantile_us(&lat, 0.999),
    )
}

/// Reads back a seeded sample of keys or blocks after the run and
/// checks every value. Returns how many were checked.
pub fn readback(sys: &System, seed: u64) -> Result<u64, String> {
    const SAMPLES: u64 = 2048;
    let mut rng = SimRng::new(seed ^ 0xC4EC_4BAC);
    match sys {
        System::Kv(kv) => {
            let client = kv.open_client();
            for _ in 0..SAMPLES {
                let k = rng.gen_range(KV_KEYS);
                let (op, req) = client.get(&key_bytes(k));
                let v = match kv_drive(kv.server(), &client, op, req) {
                    KvOutcome::Value(Some(v)) => v,
                    other => return Err(format!("key {k}: GET returned {other:?}")),
                };
                if v.len() != VALUE_LEN {
                    return Err(format!("key {k}: {} B value", v.len()));
                }
                // GET-only, so every key still holds its preload bytes.
                if v != value_bytes(k, 0, VALUE_LEN) {
                    return Err(format!("key {k}: value is not its preload value"));
                }
            }
            Ok(SAMPLES)
        }
        System::Rs(rs) => {
            let client = rs.open_client();
            let up = vec![false; rs.n()];
            for _ in 0..SAMPLES {
                let b = rng.gen_range(RS_BLOCKS);
                let (op, step) = client.get(b);
                match drive(rs, &client, op, step, &up) {
                    // Writers fill an 8-byte nonce and leave the rest
                    // zero; fresh blocks read as zeroes.
                    RsOutcome::Value(v)
                        if v.len() == VALUE_LEN && v[8..].iter().all(|&x| x == 0) => {}
                    other => return Err(format!("block {b}: quorum GET returned {other:?}")),
                }
            }
            Ok(SAMPLES)
        }
        System::Tx(tx) => {
            // Every dangling prepare was reclaimed after the last window.
            match tx.stuck_keys() {
                0 => Ok(0),
                n => Err(format!("{n} keys left with a dangling prepare")),
            }
        }
    }
}
