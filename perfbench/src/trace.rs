//! The adapter wrapper: every protocol adapter a run creates is wrapped
//! in a [`Traced`] that forwards each call unchanged and records what
//! crossed the boundary.
//!
//! It always keeps sim-clock stamps (op start and completion, from
//! `note_time`) and per-window counts, which is how closed-loop runs get
//! their p50/p99.9 (the harness reports only mean and p99). With timing
//! on it also reads the wall clock around every call, giving the
//! adapters' self time, and keeps raw spans and wire frames for a
//! 1-in-[`SAMPLE_EVERY`] sample of operations chosen by op-id hash. The
//! wrapper draws no randomness, so a traced run replays the untraced
//! one event for event.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use prism_core::msg::{Reply, Request};
use prism_harness::netsim::{AdapterStep, Outbound, ProtoAdapter};
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimTime;

/// One op in this many keeps its raw spans and frames.
const SAMPLE_EVERY: u64 = 64;

/// Caps on kept spans and request frames.
const MAX_SPANS: usize = 1 << 18;
const MAX_FRAMES: usize = 1 << 15;

/// One timed adapter call. Spans of one op share `op`; each call's
/// parent is the op's root span (`parent == None` marks the root, whose
/// interval runs from the op's first call to its last).
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counts and stamps for the measurement window (operations that
/// complete strictly after `window_start`, the harness's warm-up edge).
#[derive(Default)]
pub struct WindowCounts {
    pub ops: u64,
    pub failed: u64,
    pub backoffs: u64,
    pub retries: u64,
    /// Replies fed to adapters (one per round trip leg).
    pub replies: u64,
    /// Foreground requests sent.
    pub sends: u64,
    /// Fire-and-forget requests sent (reclamation traffic).
    pub bg_sends: u64,
    /// Sim-clock latency per completed op, ns.
    pub lat_ns: Vec<u64>,
}

/// Shared by every wrapper of one run.
pub struct Recorder {
    timed: bool,
    epoch: Instant,
    window_start: SimTime,
    pub window: WindowCounts,
    /// Adapters instantiated (slot opens on open loop, clients on closed).
    pub slot_opens: u64,
    /// Wall ns spent inside adapter calls (timed runs only).
    pub self_ns: u64,
    /// The part of `self_ns` spent inside the measurement window.
    pub window_self_ns: u64,
    pub spans: Vec<Span>,
    pub requests: Vec<(Request, u64)>,
    pub replies: Vec<Reply>,
    /// Sampled ops that completed, for per-op frame ratios.
    pub sampled_ops: u64,
}

impl Recorder {
    pub fn new(timed: bool, window_start: SimTime) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            timed,
            epoch: Instant::now(),
            window_start,
            window: WindowCounts::default(),
            slot_opens: 0,
            self_ns: 0,
            window_self_ns: 0,
            spans: Vec::new(),
            requests: Vec::new(),
            replies: Vec::new(),
            sampled_ops: 0,
        }))
    }

    /// Wraps one freshly constructed adapter.
    pub fn wrap(
        rec: &Rc<RefCell<Recorder>>,
        inner: Box<dyn ProtoAdapter>,
    ) -> Box<dyn ProtoAdapter> {
        let slot = {
            let mut r = rec.borrow_mut();
            r.slot_opens += 1;
            r.slot_opens - 1
        };
        Box::new(Traced {
            inner,
            rec: Rc::clone(rec),
            slot,
            seq: 0,
            now: SimTime::ZERO,
            op_start: SimTime::ZERO,
            root: None,
        })
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Stable op-id hash (splitmix64 finalizer) for span sampling.
fn sampled(op: u64) -> bool {
    let mut z = op.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(SAMPLE_EVERY)
}

struct Traced {
    inner: Box<dyn ProtoAdapter>,
    rec: Rc<RefCell<Recorder>>,
    slot: u64,
    seq: u64,
    now: SimTime,
    op_start: SimTime,
    /// Root span index of the op in flight, when it is sampled.
    root: Option<u32>,
}

impl Traced {
    fn op_id(&self) -> u64 {
        self.slot << 32 | self.seq
    }

    fn in_window(&self) -> bool {
        self.now > self.rec.borrow().window_start
    }

    /// Runs one inner call, timing it when the recorder is timed.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn ProtoAdapter) -> T) -> T {
        if !self.rec.borrow().timed {
            return f(self.inner.as_mut());
        }
        let t0 = self.rec.borrow().ns();
        let out = f(self.inner.as_mut());
        let window = self.in_window();
        let mut r = self.rec.borrow_mut();
        let t1 = r.ns();
        r.self_ns += t1 - t0;
        if window {
            r.window_self_ns += t1 - t0;
        }
        if let Some(root) = self.root {
            let op = self.op_id();
            r.spans.push(Span {
                name,
                op,
                parent: Some(root),
                start_ns: t0,
                end_ns: t1,
            });
            r.spans[root as usize].end_ns = t1;
        }
        out
    }

    /// Counts the sends of one step and keeps sampled frames.
    fn note_sends(&self, sends: &[Outbound]) {
        let window = self.in_window();
        let mut r = self.rec.borrow_mut();
        if window {
            for s in sends {
                if s.background {
                    r.window.bg_sends += 1;
                } else {
                    r.window.sends += 1;
                }
            }
        }
        if self.root.is_some() {
            for s in sends {
                r.requests.push((s.req.clone(), s.epoch));
            }
        }
    }

    fn note_step(&mut self, step: &AdapterStep) {
        match step {
            AdapterStep::Wait(s) | AdapterStep::GiveUp { sends: s } => self.note_sends(s),
            AdapterStep::Done { sends, .. }
            | AdapterStep::Backoff { sends, .. }
            | AdapterStep::Retry { sends, .. } => self.note_sends(sends),
        }
        let window = self.in_window();
        let mut r = self.rec.borrow_mut();
        match step {
            AdapterStep::Wait(_) => {}
            AdapterStep::Done {
                client_compute,
                failed,
                ..
            } => {
                if window {
                    if *failed {
                        r.window.failed += 1;
                    } else {
                        r.window.ops += 1;
                        let end = self.now + *client_compute;
                        r.window.lat_ns.push(end.since(self.op_start).as_nanos());
                    }
                }
                if self.root.take().is_some() && !*failed {
                    r.sampled_ops += 1;
                }
            }
            AdapterStep::GiveUp { .. } => {
                if window {
                    r.window.failed += 1;
                }
                self.root = None;
            }
            AdapterStep::Backoff { .. } => {
                if window {
                    r.window.backoffs += 1;
                }
            }
            AdapterStep::Retry { .. } => {
                if window {
                    r.window.retries += 1;
                }
            }
        }
    }
}

impl ProtoAdapter for Traced {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        self.seq += 1;
        self.op_start = self.now;
        self.root = None;
        {
            let mut r = self.rec.borrow_mut();
            // Sampling stops at the caps, so memory stays bounded; an op
            // already sampled keeps all its spans and frames.
            let room = r.spans.len() < MAX_SPANS && r.requests.len() < MAX_FRAMES;
            if r.timed && room && sampled(self.op_id()) {
                let t = r.ns();
                let op = self.op_id();
                self.root = Some(r.spans.len() as u32);
                r.spans.push(Span {
                    name: "op",
                    op,
                    parent: None,
                    start_ns: t,
                    end_ns: t,
                });
            }
        }
        let sends = self.call("start", |a| a.start(rng));
        self.note_sends(&sends);
        sends
    }

    fn resume(&mut self) -> Vec<Outbound> {
        let sends = self.call("resume", |a| a.resume());
        self.note_sends(&sends);
        sends
    }

    fn on_reply(&mut self, tag: u64, reply: Reply) -> AdapterStep {
        if self.in_window() {
            self.rec.borrow_mut().window.replies += 1;
        }
        if self.root.is_some() {
            self.rec.borrow_mut().replies.push(reply.clone());
        }
        let step = self.call("on_reply", |a| a.on_reply(tag, reply));
        self.note_step(&step);
        step
    }

    fn note_time(&mut self, now: SimTime) {
        self.now = now;
        self.inner.note_time(now);
    }

    fn on_stale_reply(&mut self, tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        let sends = self.call("on_stale_reply", |a| a.on_stale_reply(tag, server, reply));
        self.note_sends(&sends);
        sends
    }

    fn hedge_eligible(&self, tag: u64) -> bool {
        self.inner.hedge_eligible(tag)
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        let sends = self.call("abandon", |a| a.abandon());
        self.note_sends(&sends);
        self.root = None;
        sends
    }
}

/// Exact quantile of raw samples (nearest rank), in µs.
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}
