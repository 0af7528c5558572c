//! Per-layer probes, run in the traced process after the end-to-end
//! numbers are recorded, against the system as the run left it (the
//! live working set, not a cold toy instance).

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use prism_core::msg::{execute_local, Reply, Request};
use prism_kv::hash::key_bytes;
use prism_simnet::engine::{Actor, Context, Simulation};
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;
use prism_workload::ycsb::value_bytes;

use prism_core::PrismServer;

use crate::workloads::{kv_drive, servers, System, KV_KEYS, RS_BLOCKS, VALUE_LEN};

/// Mean wall ns per call of `f` over `n` calls.
fn mean_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

pub struct CoreProbe {
    pub get_ws_ns: f64,
    pub get_hot_ns: f64,
    pub put_ws_ns: f64,
}

/// `execute_local` of the protocol's read chain (the KV GET, the RS
/// read phase on replica 0, the TX read phase) for uniformly random keys
/// of the live working set vs one key over and over, and whole PUTs (KV
/// PUT chain, RS quorum write, one-key TX commit) driven locally, durable
/// taps included.
pub fn core(sys: &System, seed: u64) -> CoreProbe {
    const GETS: u64 = 100_000;
    const PUTS: u64 = 20_000;
    let mut rng = SimRng::new(seed ^ 0xC0DE);
    let keys = match sys {
        System::Rs(_) => RS_BLOCKS,
        System::Kv(_) | System::Tx(_) => KV_KEYS,
    };
    let ws: Vec<u64> = (0..GETS).map(|_| rng.gen_range(keys)).collect();
    let puts: Vec<u64> = (0..PUTS).map(|_| rng.gen_range(keys)).collect();
    // The read chain each protocol sends first for `k`, and the server
    // that executes it.
    let (server, reads, hot): (&PrismServer, Vec<Request>, Request) = match sys {
        System::Kv(kv) => {
            let client = kv.open_client();
            let read = |k: u64| client.get(&key_bytes(k)).1;
            (kv.server(), ws.iter().map(|&k| read(k)).collect(), read(7))
        }
        System::Rs(rs) => {
            let client = rs.open_client();
            let read = |k: u64| {
                let (_, step) = client.get(k);
                let (_, _, req) = step
                    .send
                    .into_iter()
                    .find(|s| s.0 == 0)
                    .expect("replica 0 read");
                req
            };
            (
                rs.replica(0).server(),
                ws.iter().map(|&k| read(k)).collect(),
                read(7),
            )
        }
        System::Tx(tx) => {
            let mut client = tx.open_client();
            let mut read = |k: u64| {
                let (_, step) = client.begin(vec![k], Vec::new());
                step.send.into_iter().next().expect("TX read phase").3
            };
            let hot = read(7);
            (
                tx.shard(0).server(),
                ws.iter().map(|&k| read(k)).collect(),
                hot,
            )
        }
    };
    let get_ws_ns = mean_ns(GETS, |i| {
        black_box(execute_local(server, &reads[i as usize]));
    });
    let get_hot_ns = mean_ns(GETS, |_| {
        black_box(execute_local(server, &hot));
    });
    drop(reads);
    let put_ws_ns = match sys {
        System::Kv(kv) => {
            let client = kv.open_client();
            mean_ns(PUTS, |i| {
                let k = puts[i as usize];
                let (op, req) = client.put(&key_bytes(k), &value_bytes(k, i + 1, VALUE_LEN));
                black_box(kv_drive(kv.server(), &client, op, req));
            })
        }
        System::Rs(rs) => {
            let client = rs.open_client();
            let up = vec![false; rs.n()];
            mean_ns(PUTS, |i| {
                let (op, step) = client.put(puts[i as usize], value_bytes(i, i, VALUE_LEN));
                black_box(prism_rs::prism_rs::drive(rs, &client, op, step, &up));
            })
        }
        System::Tx(tx) => {
            let mut client = tx.open_client();
            mean_ns(PUTS, |i| {
                let k = puts[i as usize];
                let (op, step) = client.begin(vec![k], vec![(k, value_bytes(k, i, VALUE_LEN))]);
                black_box(prism_tx::prism_tx::drive(tx, &mut client, op, step));
            })
        }
    };
    CoreProbe {
        get_ws_ns,
        get_hot_ns,
        put_ws_ns,
    }
}

pub struct RdmaProbe {
    pub read512_ws_ns: f64,
    pub read512_hot_ns: f64,
}

/// `MemoryArena::read_into` of 512 B at random 64-aligned offsets across
/// the first server's live value pool vs one address over and over.
pub fn rdma(sys: &System, seed: u64) -> RdmaProbe {
    const READS: u64 = 500_000;
    let (base, len) = match sys {
        System::Kv(kv) => kv.value_pool_range(),
        System::Rs(rs) => rs.replica(0).pool_range(),
        System::Tx(tx) => tx.shard(0).pool_range(),
    };
    let server = &servers(sys)[0];
    let arena = server.arena();
    let lines = (len - VALUE_LEN as u64) / 64;
    let mut rng = SimRng::new(seed ^ 0xAD0A);
    let addrs: Vec<u64> = (0..READS)
        .map(|_| base + rng.gen_range(lines) * 64)
        .collect();
    let mut buf = vec![0u8; VALUE_LEN];
    let read512_ws_ns = mean_ns(READS, |i| {
        arena
            .read_into(addrs[i as usize], &mut buf)
            .expect("address inside the pool");
        black_box(&buf);
    });
    let read512_hot_ns = mean_ns(READS, |_| {
        arena.read_into(base, &mut buf).expect("pool base");
        black_box(&buf);
    });
    RdmaProbe {
        read512_ws_ns,
        read512_hot_ns,
    }
}

pub struct WireProbe {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_op: f64,
}

/// Encodes and decodes the frames the wrapper captured from sampled
/// ops: requests with their routing epoch, replies as sent back.
pub fn wire(requests: &[(Request, u64)], replies: &[Reply], sampled_ops: u64) -> WireProbe {
    const PASSES: u32 = 8;
    let req_bytes: Vec<Vec<u8>> = requests
        .iter()
        .map(|(r, e)| r.encode_epoch(*e).expect("captured request encodes"))
        .collect();
    let rep_bytes: Vec<Vec<u8>> = replies
        .iter()
        .map(|r| r.encode().expect("captured reply encodes"))
        .collect();
    let frames = (requests.len() + replies.len()) as f64 * PASSES as f64;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for (r, e) in requests {
            black_box(r.encode_epoch(*e).expect("encodes"));
        }
        for r in replies {
            black_box(r.encode().expect("encodes"));
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / frames;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for b in &req_bytes {
            black_box(Request::decode_epoch(b).expect("decodes"));
        }
        for b in &rep_bytes {
            black_box(Reply::decode(b).expect("decodes"));
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / frames;
    let total: usize = req_bytes.iter().chain(&rep_bytes).map(Vec::len).sum();
    WireProbe {
        encode_ns,
        decode_ns,
        bytes_per_op: total as f64 / sampled_ops.max(1) as f64,
    }
}

/// An actor keeping `n` timers standing: each firing re-arms itself a
/// random 1–64 µs ahead, so the queue holds `n` events at all times.
struct Timers {
    n: u64,
    rng: SimRng,
    fired: Rc<Cell<u64>>,
}

impl Actor<u32> for Timers {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        let me = ctx.self_id();
        for i in 0..self.n {
            let d = SimDuration::from_nanos(1_000 + self.rng.gen_range(63_000));
            ctx.send_in(me, d, i as u32);
        }
    }

    fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
        self.fired.set(self.fired.get() + 1);
        let me = ctx.self_id();
        let d = SimDuration::from_nanos(1_000 + self.rng.gen_range(63_000));
        ctx.send_in(me, d, msg);
    }
}

/// Wall ns per DES event with 3,500 standing timers (the open-loop
/// connection budget's worth of outstanding requests).
pub fn simnet(seed: u64) -> f64 {
    const STANDING: u64 = 3_500;
    const SPAN_MS: u64 = 40;
    let fired = Rc::new(Cell::new(0));
    let mut sim: Simulation<u32> = Simulation::new(seed);
    sim.add_actor(Box::new(Timers {
        n: STANDING,
        rng: SimRng::new(seed ^ 0x71AE),
        fired: Rc::clone(&fired),
    }));
    let t0 = Instant::now();
    sim.run_for(SimDuration::millis(SPAN_MS));
    t0.elapsed().as_nanos() as f64 / fired.get() as f64
}
