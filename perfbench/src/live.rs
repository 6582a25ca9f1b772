//! The `core::live` and `proto` layers, timed on the deployment path. Two
//! `LiveDomain`s, Intrepid holding and Eureka yielding with the paper's
//! configuration, replay a pair of generated traces on a stepped sim
//! clock. At each tick the driver calls `complete_due`, then `submit`, then
//! `pump` on A and then on B. Every protocol call crosses a framed wire on the calling
//! thread: the request travels as a `TracedRequest` frame through a
//! `FrameDecoder` to the peer's `LiveDomain::service`, and the response
//! makes the same trip back. No thread or socket takes part, so a replay's
//! RPC count repeats exactly.

use crate::report::{median, nanos, ratio, tail, Report};
use cosched_core::live::LiveDomain;
use cosched_core::{CoupledConfig, MateRegistry, SchemeCombo};
use cosched_proto::frame::{self, FrameDecoder};
use cosched_proto::tcp::{self, TcpTransport};
use cosched_proto::{
    inproc, DomainService, ProtoError, Request, Response, SpanContext, TracedRequest, Transport,
};
use cosched_sched::Machine;
use cosched_sim::SimTime;
use cosched_workload::{Job, JobId, Trace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tick of the stepped clock: a simulated minute.
const TICK_SECS: u64 = 60;
/// Ticks allowed after the last submission for every job to finish.
const DRAIN_TICKS: u64 = 30 * 24 * 60;
/// Pings per transport round-trip measurement.
const PINGS: usize = 2_000;

/// One replay's inputs.
struct Inputs {
    /// Each machine's jobs in submission order.
    jobs: [Vec<Job>; 2],
    registry: MateRegistry,
    /// Every pair as (machine-0 member, machine-1 member).
    pairs: Vec<(JobId, JobId)>,
}

impl Inputs {
    fn new(traces: [Trace; 2]) -> Self {
        let registry = MateRegistry::from_traces(&traces[0], &traces[1]);
        let pairs = traces[0]
            .jobs()
            .iter()
            .filter_map(|job| Some((job.id, job.mate?.job)))
            .collect();
        Inputs {
            jobs: traces.map(Trace::into_jobs),
            registry,
            pairs,
        }
    }

    /// Fresh domains with the paper's HY configuration.
    fn domains(&self) -> [LiveDomain; 2] {
        let config = CoupledConfig::anl(SchemeCombo::HY);
        [0, 1].map(|m| {
            LiveDomain::new(
                Machine::new(config.machines[m].clone()),
                config.cosched[m].clone(),
                self.registry.clone(),
                config.machines[1 - m].machine,
            )
        })
    }
}

/// Per-direction wire counters and timings.
#[derive(Debug, Default)]
struct WireStats {
    calls: u64,
    errors: u64,
    bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    handle_ns: u64,
    rtt_ns: Vec<f64>,
}

/// One direction of the single-threaded framed wire.
struct Wire<S> {
    service: S,
    /// The peer's decoder for request frames.
    requests: FrameDecoder,
    /// The caller's decoder for response frames.
    responses: FrameDecoder,
    stats: WireStats,
}

fn gap(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

fn protocol(error: impl std::fmt::Display) -> ProtoError {
    ProtoError::Protocol(error.to_string())
}

impl<S: DomainService> Wire<S> {
    fn new(service: S) -> Self {
        Wire {
            service,
            requests: FrameDecoder::new(),
            responses: FrameDecoder::new(),
            stats: WireStats::default(),
        }
    }

    fn round_trip(&mut self, req: &Request, ctx: SpanContext) -> Result<Response, ProtoError> {
        let t0 = Instant::now();
        let request = frame::encode(&TracedRequest {
            ctx,
            req: req.clone(),
        });
        let t1 = Instant::now();
        self.requests.extend(&request);
        let envelope = self
            .requests
            .next::<TracedRequest>()
            .map_err(protocol)?
            .ok_or_else(|| protocol("truncated request frame"))?;
        let t2 = Instant::now();
        let response = self.service.handle_traced(envelope.req, envelope.ctx);
        let t3 = Instant::now();
        let reply = frame::encode(&response);
        let t4 = Instant::now();
        self.responses.extend(&reply);
        let response = self
            .responses
            .next::<Response>()
            .map_err(protocol)?
            .ok_or_else(|| protocol("truncated response frame"))?;
        let t5 = Instant::now();
        let stats = &mut self.stats;
        stats.bytes += (request.len() + reply.len()) as u64;
        stats.encode_ns += gap(t0, t1) + gap(t3, t4);
        stats.decode_ns += gap(t1, t2) + gap(t4, t5);
        stats.handle_ns += gap(t2, t3);
        stats.rtt_ns.push(gap(t0, t5) as f64);
        Ok(response)
    }
}

impl<S: DomainService> Transport for Wire<S> {
    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        self.call_with(req, SpanContext::NONE)
    }

    fn call_with(&mut self, req: &Request, ctx: SpanContext) -> Result<Response, ProtoError> {
        let result = self.round_trip(req, ctx);
        self.stats.calls += 1;
        if matches!(result, Err(_) | Ok(Response::Error(_))) {
            self.stats.errors += 1;
        }
        result
    }
}

/// Wall time inside the domain calls of a replay.
#[derive(Debug, Default)]
struct LiveTimes {
    submit_ns: u64,
    submits: u64,
    complete_due_ns: u64,
    complete_due_calls: u64,
    pump_ns: u64,
}

/// A pair's start times on machine 0 and machine 1, `None` for a member
/// that never ran.
type PairStart = (Option<SimTime>, Option<SimTime>);

/// What one replay did.
struct Replay {
    completed: u64,
    pumps: u64,
    unfinished: bool,
    starts: Vec<PairStart>,
    times: LiveTimes,
    wires: [WireStats; 2],
}

impl Replay {
    /// The RPC count and each pair's start times, which must repeat.
    fn signature(&self) -> (u64, &[PairStart]) {
        (self.wires.iter().map(|w| w.calls).sum(), &self.starts)
    }

    /// Why the replay fails its checks, if it does.
    fn failure(&self) -> Option<String> {
        let errors: u64 = self.wires.iter().map(|w| w.errors).sum();
        let unsynced = self
            .starts
            .iter()
            .filter(|(a, b)| a.is_none() || a != b)
            .count();
        if self.unfinished {
            Some("jobs were unfinished at the tick limit".into())
        } else if errors > 0 {
            Some(format!("{errors} RPCs returned an error"))
        } else if unsynced > 0 {
            Some(format!("{unsynced} pairs did not start together"))
        } else {
            None
        }
    }
}

/// Replay `inputs` on fresh domains, stamping every call.
fn replay(inputs: &Inputs) -> Replay {
    // Written and read on this thread only.
    let clock = Arc::new(AtomicU64::new(0));
    let reader = || {
        let clock = Arc::clone(&clock);
        move || SimTime::from_secs(clock.load(Ordering::Relaxed))
    };
    let [a, b] = inputs.domains();
    let mut a_to_b = Wire::new(b.service(reader()));
    let mut b_to_a = Wire::new(a.service(reader()));
    let jobs = inputs.jobs.clone();
    let last_submit = jobs
        .iter()
        .filter_map(|j| j.last())
        .map(|job| job.submit.as_secs())
        .max()
        .unwrap_or(0);
    let limit = last_submit / TICK_SECS + DRAIN_TICKS;
    let mut queues = jobs.map(|j| j.into_iter().peekable());
    let mut times = LiveTimes::default();
    let (mut completed, mut pumps, mut tick) = (0u64, 0u64, 0u64);
    let unfinished = loop {
        let now = SimTime::from_secs(tick * TICK_SECS);
        clock.store(now.as_secs(), Ordering::Relaxed);
        for domain in [&a, &b] {
            let t = Instant::now();
            completed += domain.complete_due(now) as u64;
            times.complete_due_ns += gap(t, Instant::now());
            times.complete_due_calls += 1;
        }
        for (domain, queue) in [&a, &b].into_iter().zip(queues.iter_mut()) {
            while let Some(job) = queue.next_if(|job| job.submit <= now) {
                let t = Instant::now();
                domain.submit(job, now);
                times.submit_ns += gap(t, Instant::now());
                times.submits += 1;
            }
        }
        let t = Instant::now();
        a.pump(now, &mut a_to_b);
        b.pump(now, &mut b_to_a);
        times.pump_ns += gap(t, Instant::now());
        pumps += 2;
        if queues.iter_mut().all(|q| q.peek().is_none()) && a.drained() && b.drained() {
            break false;
        }
        if tick >= limit {
            break true;
        }
        tick += 1;
    };
    let starts_of = |domain: &LiveDomain| {
        domain
            .records()
            .into_iter()
            .map(|r| (r.id, r.start))
            .collect::<HashMap<_, _>>()
    };
    let (starts_a, starts_b) = (starts_of(&a), starts_of(&b));
    let starts = inputs
        .pairs
        .iter()
        .map(|(ja, jb)| (starts_a.get(ja).copied(), starts_b.get(jb).copied()))
        .collect();
    Replay {
        completed,
        pumps,
        unfinished,
        starts,
        times,
        wires: [a_to_b.stats, b_to_a.stats],
    }
}

/// Totals over the replays of a traced run.
#[derive(Debug, Default)]
pub struct LiveLayers {
    replays: u64,
    failed: u64,
    completed: u64,
    pumps: u64,
    times: LiveTimes,
    calls: u64,
    bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    handle_ns: u64,
    rtt_ns: Vec<f64>,
}

impl LiveLayers {
    /// Replay `traces` twice with every call stamped; the second replay
    /// must repeat the first's RPC count and pair start times, and its
    /// times are kept.
    pub fn cell(&mut self, traces: &[Trace; 2]) {
        let inputs = Inputs::new(traces.clone());
        let first = replay(&inputs);
        let timed = replay(&inputs);
        for done in [&first, &timed] {
            if let Some(why) = done.failure() {
                self.failed += 1;
                eprintln!("live replay failed: {why}");
            }
        }
        if timed.signature() != first.signature() {
            self.failed += 1;
            eprintln!(
                "live replay failed: its RPC count or pair start times changed between repetitions"
            );
        }
        self.replays += 1;
        self.completed += timed.completed;
        self.pumps += timed.pumps;
        let t = &timed.times;
        self.times.submit_ns += t.submit_ns;
        self.times.submits += t.submits;
        self.times.complete_due_ns += t.complete_due_ns;
        self.times.complete_due_calls += t.complete_due_calls;
        self.times.pump_ns += t.pump_ns;
        for wire in timed.wires {
            self.calls += wire.calls;
            self.bytes += wire.bytes;
            self.encode_ns += wire.encode_ns;
            self.decode_ns += wire.decode_ns;
            self.handle_ns += wire.handle_ns;
            self.rtt_ns.extend(wire.rtt_ns);
        }
    }

    /// Write the `core::live` rows and the wire's `proto` rows.
    pub fn emit(&self, out: &mut Report) {
        let calls = self.calls as f64;
        let rtt_total: f64 = self.rtt_ns.iter().sum();
        out.attempted += 2 * self.replays;
        out.failed += self.failed;
        out.set(
            "live.pump_self_ns",
            ratio(self.times.pump_ns as f64 - rtt_total, self.pumps as f64),
        );
        out.set("live.pumps", ratio(self.pumps as f64, self.replays as f64));
        out.set("live.handle_ns", ratio(self.handle_ns as f64, calls));
        out.set(
            "live.submit_ns",
            ratio(self.times.submit_ns as f64, self.times.submits as f64),
        );
        out.set(
            "live.complete_due_ns",
            ratio(
                self.times.complete_due_ns as f64,
                self.times.complete_due_calls as f64,
            ),
        );
        out.set("live.rpcs_per_job", ratio(calls, self.completed as f64));
        let rtt_us: Vec<f64> = self.rtt_ns.iter().map(|ns| ns / 1e3).collect();
        out.set("live.rpc_us_p50", median(&rtt_us));
        let rtt_tail = tail(&rtt_us).expect("a replay makes thousands of calls");
        out.set_noted("live.rpc_us_tail", rtt_tail.value, rtt_tail.note);
        out.set("proto.encode_ns", ratio(self.encode_ns as f64, calls));
        out.set("proto.decode_ns", ratio(self.decode_ns as f64, calls));
        out.set("proto.frame_bytes_per_rpc", ratio(self.bytes as f64, calls));
    }
}

/// Median `Ping` round trip over `transport`, in nanoseconds.
fn ping_p50(transport: &mut impl Transport) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        let response = transport.call(&Request::Ping).map_err(|e| e.to_string())?;
        samples.push(nanos(t0.elapsed()));
        if response != Response::Pong {
            return Err(format!("a ping was answered with {response:?}"));
        }
    }
    Ok(median(&samples))
}

/// `Ping` over `inproc::pair`, served by `domain` on a second thread.
fn inproc_rtt(domain: &LiveDomain) -> Result<f64, String> {
    let (mut client, server) = inproc::pair(Duration::from_secs(5));
    let mut service = domain.service(|| SimTime::ZERO);
    std::thread::scope(|scope| {
        scope.spawn(move || server.serve(&mut service));
        let p50 = ping_p50(&mut client);
        // Dropping the client ends the server loop, so the scope can join it.
        drop(client);
        p50
    })
}

/// `Ping` over one `TcpTransport` connection to a `tcp::serve`d domain.
fn tcp_rtt(domain: &LiveDomain) -> Result<f64, String> {
    let addr = "127.0.0.1:0".parse().expect("a literal socket address");
    let server =
        tcp::serve(addr, domain.service(|| SimTime::ZERO)).map_err(|e| format!("serve: {e}"))?;
    let p50 = TcpTransport::connect(server.addr(), Duration::from_secs(5))
        .map_err(|e| e.to_string())
        .and_then(|mut client| ping_p50(&mut client));
    server.shutdown();
    p50
}

/// The `proto` transports' `Ping` round trips, served by a domain built
/// from `traces`.
pub fn pings(out: &mut Report, traces: &[Trace; 2]) {
    let [domain, _] = Inputs::new(traces.clone()).domains();
    match inproc_rtt(&domain) {
        Ok(ns) => out.set("proto.inproc_rtt_ns_p50", ns),
        Err(e) => {
            out.set("proto.inproc_rtt_ns_p50", 0.0);
            out.problem(format!("in-process ping: {e}"));
        }
    }
    match tcp_rtt(&domain) {
        Ok(ns) => out.set("proto.tcp_rtt_ns_p50", ns),
        Err(e) => out.set_noted(
            "proto.tcp_rtt_ns_p50",
            0.0,
            format!("TCP loopback unavailable: {e}"),
        ),
    }
}
