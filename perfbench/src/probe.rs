//! Timing decorators around the public control-plane and arrival-stream
//! traits, and the in-memory recorder they report to.
//!
//! The decorators are transparent: every trait method, including the
//! run-boundary and fleet-change hooks, forwards to the wrapped policy, so
//! a wrapped run makes exactly the decisions an unwrapped one does. With
//! the recorder in [`Mode::Off`] they do not read the clock at all.

use hierdrl_core::allocator::DrlAllocator;
use hierdrl_sim::cluster::{Allocator, ClusterView, PowerManager, TimeoutDecision};
use hierdrl_sim::job::{Job, ServerId};
use hierdrl_sim::policies::RoundRobinAllocator;
use hierdrl_sim::time::SimTime;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a span measured. `Setup` and `Eval` are the phase spans every other
/// span hangs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Trace synthesis, pre-training and snapshot restore.
    Setup,
    /// The evaluation call.
    Eval,
    /// One `TraceSpec::materialize`.
    Materialize,
    /// One `pretrain_pair`.
    Pretrain,
    /// Restoring both tiers from their snapshots.
    Restore,
    /// A `select` that ran no train step.
    Decide,
    /// A `select` that ran at least one train step.
    Train,
    /// The `select` in which the autoencoder pre-training ran.
    AePretrain,
    /// One `on_job_arrival`.
    Arrival,
    /// One `on_idle`.
    Idle,
}

impl Op {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Setup => "setup",
            Op::Eval => "eval",
            Op::Materialize => "trace.materialize",
            Op::Pretrain => "core.pretrain",
            Op::Restore => "core.restore",
            Op::Decide => "core.alloc.decide",
            Op::Train => "core.alloc.train",
            Op::AePretrain => "core.alloc.ae_pretrain",
            Op::Arrival => "core.dpm.arrival",
            Op::Idle => "core.dpm.idle",
        }
    }
}

/// Parent id of a phase span.
pub const NO_PARENT: u32 = u32::MAX;

/// Request ids of `on_idle` spans carry this bit over the server index: an
/// idle decision belongs to a server, not to a job.
pub const IDLE_REQUEST: u64 = 1 << 63;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub op: Op,
    /// Index of the enclosing phase span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The `JobId` a control-plane call served (so a job's `select` and
    /// `on_job_arrival` share it), or `IDLE_REQUEST | server`.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// How much a recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing: decorators only forward.
    Off,
    /// Busy time per op, estimated from every [`SAMPLE_EVERY`]-th call of
    /// each kind, for runs whose per-call spans (and clock reads) would
    /// dominate memory and time.
    Sampled,
    /// One span per wrapped call.
    Spans,
}

/// In [`Mode::Sampled`], one call in this many of each kind is timed.
pub const SAMPLE_EVERY: u64 = 16;

const OPS: usize = 10;

fn slot(op: Op) -> usize {
    op as usize
}

/// Spans (or counters) of one run, kept in memory until written out.
#[derive(Debug)]
pub struct Recorder {
    mode: Mode,
    origin: Instant,
    spans: Vec<Span>,
    phase: u32,
    request: u64,
    calls: [u64; OPS],
    sampled_ns: [u64; OPS],
}

/// A recorder shared by the decorators of one run.
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A fresh recorder, shared.
    pub fn shared(mode: Mode) -> Shared {
        Rc::new(RefCell::new(Self {
            mode,
            origin: Instant::now(),
            spans: Vec::new(),
            phase: NO_PARENT,
            request: 0,
            calls: [0; OPS],
            sampled_ns: [0; OPS],
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Counts a call at `site`; whether to time it.
    fn sample(&mut self, site: Op) -> bool {
        match self.mode {
            Mode::Off => false,
            Mode::Spans => true,
            Mode::Sampled => {
                let n = self.calls[slot(site)];
                self.calls[slot(site)] += 1;
                n.is_multiple_of(SAMPLE_EVERY)
            }
        }
    }

    fn record(&mut self, op: Op, start: Instant, end: Instant, request: u64) {
        match self.mode {
            Mode::Off => {}
            Mode::Sampled => {
                self.sampled_ns[slot(op)] += (end - start).as_nanos() as u64;
            }
            Mode::Spans => {
                let (start_ns, end_ns) = (self.ns(start), self.ns(end));
                self.spans.push(Span {
                    op,
                    parent: self.phase,
                    start_ns,
                    end_ns,
                    request,
                });
            }
        }
    }

    /// Recorded spans, in the order their calls ended (a phase span comes
    /// first, at the time it opened).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Estimated busy seconds of `op` in sampled mode: the timed calls'
    /// total, scaled by the sampling rate.
    pub fn estimated_busy_s(&self, op: Op) -> f64 {
        (self.sampled_ns[slot(op)] * SAMPLE_EVERY) as f64 * 1e-9
    }

    /// Writes the spans as tab-separated `id name start_ns end_ns parent
    /// request` rows.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "-".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.op.name(),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Opens a phase span; later spans hang under it until [`close_phase`].
pub fn open_phase(rec: &Shared, op: Op) -> Option<usize> {
    let mut r = rec.borrow_mut();
    if r.mode != Mode::Spans {
        return None;
    }
    let now = Instant::now();
    let start_ns = r.ns(now);
    r.spans.push(Span {
        op,
        parent: NO_PARENT,
        start_ns,
        end_ns: start_ns,
        request: 0,
    });
    r.phase = (r.spans.len() - 1) as u32;
    Some(r.spans.len() - 1)
}

/// Closes a phase span opened by [`open_phase`].
pub fn close_phase(rec: &Shared, id: Option<usize>) {
    if let Some(id) = id {
        let mut r = rec.borrow_mut();
        let now = Instant::now();
        r.spans[id].end_ns = r.ns(now);
        r.phase = NO_PARENT;
    }
}

/// Runs `f` as one `op` span under the current phase.
pub fn timed<T>(rec: &Shared, op: Op, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    rec.borrow_mut().record(op, start, Instant::now(), 0);
    out
}

/// Learner progress an allocator exposes, used to tell a `select` that
/// trained apart from one that only decided.
pub trait Progress {
    /// `(train steps so far, autoencoder pre-trained)`.
    fn progress(&self) -> (u64, bool) {
        (0, false)
    }
}

impl Progress for DrlAllocator {
    fn progress(&self) -> (u64, bool) {
        let s = self.stats();
        (s.train_steps, s.autoencoder_trained)
    }
}

impl Progress for RoundRobinAllocator {}

/// A transparent timing decorator around a control-plane tier.
#[derive(Debug)]
pub struct Timed<T> {
    /// The wrapped policy.
    pub inner: T,
    rec: Shared,
    on: bool,
}

impl<T> Timed<T> {
    /// Wraps `inner`, reporting to `rec`.
    pub fn new(inner: T, rec: &Shared) -> Self {
        let on = rec.borrow().mode != Mode::Off;
        Self {
            inner,
            rec: rec.clone(),
            on,
        }
    }
}

impl<A: Allocator + Progress> Allocator for Timed<A> {
    fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
        if !self.on || !self.rec.borrow_mut().sample(Op::Decide) {
            return self.inner.select(job, view);
        }
        let (steps, ae) = self.inner.progress();
        let start = Instant::now();
        let server = self.inner.select(job, view);
        let end = Instant::now();
        let (steps_after, ae_after) = self.inner.progress();
        let op = if ae_after != ae {
            Op::AePretrain
        } else if steps_after != steps {
            Op::Train
        } else {
            Op::Decide
        };
        let mut rec = self.rec.borrow_mut();
        rec.request = job.id.0;
        rec.record(op, start, end, job.id.0);
        server
    }

    fn on_run_begin(&mut self) {
        self.inner.on_run_begin();
    }

    fn on_run_end(&mut self, view: &ClusterView<'_>) {
        self.inner.on_run_end(view);
    }

    fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
        self.inner.on_fleet_change(view);
    }
}

impl<P: PowerManager> PowerManager for Timed<P> {
    fn on_idle(
        &mut self,
        server: ServerId,
        view: &ClusterView<'_>,
        now: SimTime,
    ) -> TimeoutDecision {
        if !self.on || !self.rec.borrow_mut().sample(Op::Idle) {
            return self.inner.on_idle(server, view, now);
        }
        let start = Instant::now();
        let decision = self.inner.on_idle(server, view, now);
        let end = Instant::now();
        self.rec
            .borrow_mut()
            .record(Op::Idle, start, end, IDLE_REQUEST | server.0 as u64);
        decision
    }

    fn on_job_arrival(&mut self, server: ServerId, view: &ClusterView<'_>, now: SimTime) {
        if !self.on || !self.rec.borrow_mut().sample(Op::Arrival) {
            return self.inner.on_job_arrival(server, view, now);
        }
        let start = Instant::now();
        self.inner.on_job_arrival(server, view, now);
        let end = Instant::now();
        // The simulator calls `on_job_arrival` right after the `select`
        // that placed the same job.
        let mut rec = self.rec.borrow_mut();
        let request = rec.request;
        rec.record(Op::Arrival, start, end, request);
    }

    fn on_run_begin(&mut self) {
        self.inner.on_run_begin();
    }

    fn on_run_end(&mut self, view: &ClusterView<'_>) {
        self.inner.on_run_end(view);
    }

    fn on_fleet_change(&mut self, view: &ClusterView<'_>) {
        self.inner.on_fleet_change(view);
    }
}

/// Jobs and sampled busy time of a streamed arrival source. Atomic because
/// the simulator takes ownership of the (`Send`) stream.
#[derive(Debug, Default)]
pub struct StreamCounter {
    /// `next` calls that yielded a job.
    pub jobs: AtomicU64,
    /// Nanoseconds spent inside every [`SAMPLE_EVERY`]-th `next`.
    pub sampled_ns: AtomicU64,
}

impl StreamCounter {
    /// Estimated seconds spent inside `next`.
    pub fn estimated_busy_s(&self) -> f64 {
        (self.sampled_ns.load(Ordering::Relaxed) * SAMPLE_EVERY) as f64 * 1e-9
    }
}

/// A transparent timing decorator around an arrival stream, timing every
/// [`SAMPLE_EVERY`]-th `next`.
#[derive(Debug)]
pub struct TimedStream<I> {
    inner: I,
    counter: Option<Arc<StreamCounter>>,
    calls: u64,
}

impl<I> TimedStream<I> {
    /// Wraps `inner`; `counter: None` forwards without reading the clock.
    pub fn new(inner: I, counter: Option<Arc<StreamCounter>>) -> Self {
        Self {
            inner,
            counter,
            calls: 0,
        }
    }
}

impl<I: Iterator<Item = Job>> Iterator for TimedStream<I> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let Some(counter) = &self.counter else {
            return self.inner.next();
        };
        self.calls += 1;
        let job = if self.calls % SAMPLE_EVERY == 1 {
            let start = Instant::now();
            let job = self.inner.next();
            // Statistics only: nothing else is published through these.
            counter
                .sampled_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            job
        } else {
            self.inner.next()
        };
        if job.is_some() {
            counter.jobs.fetch_add(1, Ordering::Relaxed);
        }
        job
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}
