//! Pieces every workload shares: the run context, host measurements, and
//! the per-layer numbers read from a simulator trace.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nexus_profile::Micros;
use nexus_runtime::{DropCause, LatencyHistogram, Trace, TraceEvent};
use nexus_simgpu::CalendarQueue;
use nexus_workload::{exp_sample, rng_for};

use crate::report::{Report, DROP_CAUSES, LAYERS};
use crate::spans::{self, Tracer};
use crate::stats;

/// Everything one invocation knows about itself.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of the run phase.
    pub seconds: f64,
    /// Span recorder (on for the traced run); shared so a workload can
    /// hold it open around calls that also update `report`.
    pub tracer: Arc<Tracer>,
    /// Metrics and checks.
    pub report: Report,
    /// Directory the traced run writes its spans to.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.report.traced()
    }

    /// The run phase's wall-clock budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Closes the traced run: per-layer self times, the self-time sum
    /// check, and the span file.
    pub fn finish_trace(&mut self) {
        if !self.traced() {
            return;
        }
        let recorded = self.tracer.spans();
        let Some(root) = recorded.first() else {
            self.report
                .check(false, || "traced run recorded no spans".into());
            return;
        };
        let wall_ns = root.end - root.start;
        let self_ns: u64 = spans::self_times(&recorded).iter().sum();
        self.report.check(self_ns == wall_ns, || {
            format!("layer self times sum to {self_ns} ns, traced wall is {wall_ns} ns")
        });
        for (layer, ms) in LAYERS.iter().zip(spans::layer_self_ms(&recorded, LAYERS)) {
            self.report.set(&format!("self_ms.{layer}"), ms);
        }
        self.report.set("trace.wall_ms", wall_ns as f64 / 1e6);
        let path = self
            .out_dir
            .join(format!("{}-seed{}.spans.json", self.workload, self.seed));
        let written = std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(&recorded)));
        self.report.check(written.is_ok(), || {
            format!("could not write spans to {}", path.display())
        });
        self.report.note(format!(
            "spans: {} recorded, written to {}",
            recorded.len(),
            path.display()
        ));
    }
}

/// What [`repeat`] measured.
pub(crate) struct Repeated<T> {
    /// The first repetition's outputs.
    pub first: T,
    /// Their fingerprint, which every repetition reproduced.
    pub fingerprint: u64,
    /// Set-up seconds per repetition.
    pub setups: Vec<f64>,
    /// Run-phase seconds per repetition.
    pub runs: Vec<f64>,
}

/// Repeats one seeded simulation until the time budget is spent, and at
/// least `min` times; a repetition that would end past the budget (judged
/// by the slowest one so far) is not started. `rep` returns the outputs
/// with its set-up and run seconds; every repetition's fingerprint must
/// match the first one's.
pub(crate) fn repeat<T>(
    ctx: &mut Ctx,
    min: usize,
    mut rep: impl FnMut(&mut Ctx) -> (T, f64, f64),
    fingerprint: impl Fn(&T) -> u64,
) -> Repeated<T> {
    let budget = ctx.budget();
    let started = Instant::now();
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, T)> = None;
    let mut longest = Duration::ZERO;
    while runs.len() < min || started.elapsed() + longest < budget {
        let t0 = Instant::now();
        let (out, setup, run) = rep(ctx);
        longest = longest.max(t0.elapsed());
        setups.push(setup);
        runs.push(run);
        let fp = fingerprint(&out);
        match &first {
            None => first = Some((fp, out)),
            Some((fp0, _)) => ctx.report.check(fp == *fp0, || {
                format!(
                    "repetition {} fingerprint {fp:016x} differs from the first {fp0:016x}",
                    runs.len()
                )
            }),
        }
    }
    let (fingerprint, first) = first.expect("at least one repetition ran");
    ctx.report.note(format!("fingerprint: {fingerprint:016x}"));
    Repeated {
        first,
        fingerprint,
        setups,
        runs,
    }
}

/// Wall time of `f`, in seconds, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hold-model churn through the public [`CalendarQueue`]: keep `pending`
/// events queued, and repeatedly pop the earliest and push a successor a
/// random hold later (mean `mean_hold`). Returns ns per queue operation.
pub(crate) fn calendar_ns_per_op(pending: usize, mean_hold: Micros, seed: u64) -> f64 {
    const OPS: u64 = 2_000_000;
    let mut rng = rng_for(seed, 0xca1e);
    let rate = 1.0 / mean_hold.as_micros() as f64;
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    q.reserve(pending);
    let mut seq = 0u64;
    for i in 0..pending {
        q.push(
            Micros::from_micros(exp_sample(&mut rng, rate) as u64),
            seq,
            i as u32,
        );
        seq += 1;
    }
    let t0 = Instant::now();
    for _ in 0..OPS / 2 {
        let (now, _, e) = q.pop().expect("hold model keeps the queue full");
        let at = now + Micros::from_micros(exp_sample(&mut rng, rate) as u64);
        q.push(at, seq, e);
        seq += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(q.len());
    ns / OPS as f64
}

/// Quantile `q` of a latency histogram in ms, interpolated linearly
/// inside the histogram bucket that holds it (the bucket's own value is
/// its midpoint, so a bare bucket value would move in ~3% steps).
pub(crate) fn histogram_quantile_ms(h: &LatencyHistogram, q: f64) -> Option<f64> {
    let at = |q: f64| h.quantile(q).map(|m| m.as_micros());
    let v = at(q)?;
    // The range of quantiles that land in `v`'s bucket, by bisection.
    let edge = |mut inside: f64, mut outside: f64| {
        for _ in 0..48 {
            let mid = 0.5 * (inside + outside);
            if at(mid) == Some(v) {
                inside = mid;
            } else {
                outside = mid;
            }
        }
        inside
    };
    let (q_lo, q_hi) = (edge(q, 0.0), edge(q, 1.0));
    // Buckets are 1 µs wide below 64 µs, then 32 per power of two.
    let width = if v < 64 {
        1.0
    } else {
        (1u64 << (63 - v.leading_zeros())) as f64 / 32.0
    };
    let frac = if q_hi > q_lo {
        (q - q_lo) / (q_hi - q_lo)
    } else {
        0.5
    };
    let us = v as f64 - width / 2.0 + width * frac;
    let (lo, hi) = (h.min()?.as_micros() as f64, h.max()?.as_micros() as f64);
    Some(us.clamp(lo, hi) / 1e3)
}

/// Median and tail of a merged latency histogram, in ms, with its count.
pub(crate) fn histogram_summary(h: &LatencyHistogram) -> Option<stats::Summary> {
    let count = h.count() as usize;
    let tail_q = stats::tail_quantile(count)?;
    Some(stats::Summary {
        count,
        p50: histogram_quantile_ms(h, 0.5)?,
        tail_q,
        tail: histogram_quantile_ms(h, tail_q)?,
    })
}

/// Sets the latency end-to-end metrics from a summary and notes how they
/// were taken.
pub(crate) fn set_latency(report: &mut Report, what: &str, s: Option<stats::Summary>) {
    match s {
        Some(s) => {
            report.set("latency_p50_ms", s.p50);
            report.set("latency_p99_ms", s.tail);
            report.note(format!(
                "latency ({what}): p50 {:.3} ms, p{:.2} {:.3} ms over {} samples",
                s.p50,
                s.tail_q * 100.0,
                s.tail,
                s.count
            ));
        }
        None => report.check(false, || format!("no latency samples ({what})")),
    }
}

/// Leading trace events the exporters are timed on: whole-capture exports
/// of a large simulation build documents of gigabytes.
const EXPORT_EVENTS: usize = 100_000;

/// Times the `nexus-obs` exporters on the head of a capture and reads the
/// simulated dispatch layer's numbers from all of it.
pub(crate) fn trace_layers(ctx: &mut Ctx, trace: &Trace) {
    let tracer = ctx.tracer.clone();
    let events = trace.events();
    let head = &events[..events.len().min(EXPORT_EVENTS)];
    let (_, encode_s) = timed(|| {
        tracer.scope("obs.encode", || {
            nexus_obs::raw::encode(head, 0, None).to_string().len()
        })
    });
    let (_, chrome_s) = timed(|| {
        tracer.scope("obs.chrome_trace", || {
            nexus_obs::chrome_trace(head).to_string().len()
        })
    });
    let report = &mut ctx.report;
    // Every event the simulator emitted: the capture keeps the earliest
    // ones up to its capacity and counts the rest as truncated.
    report.set(
        "obs.trace_events",
        events.len() as f64 + trace.truncated as f64,
    );
    report.set("obs.trace_truncated", trace.truncated as f64);
    report.set("obs.encode_ms", encode_s * 1e3);
    report.set("obs.chrome_trace_ms", chrome_s * 1e3);
    tracer.scope("obs.reconstruct", || dispatch_metrics(report, events));
    report.note(format!(
        "trace: {} events captured, {} truncated; exporters timed on the first {}",
        events.len(),
        trace.truncated,
        head.len()
    ));
}

fn drop_index(cause: DropCause) -> usize {
    match cause {
        DropCause::NoRoute => 0,
        DropCause::EarlySacrifice => 1,
        DropCause::Expired => 2,
        DropCause::Orphaned => 3,
        DropCause::Stranded => 4,
        DropCause::RunEnd => 5,
        DropCause::AdmissionRejected => 6,
    }
}

/// The simulated dispatch layer's numbers, read from a captured trace:
/// queue wait and execution phases, batch sizes, rung fill and drops by
/// cause.
fn dispatch_metrics(report: &mut Report, events: &[TraceEvent]) {
    let phases = nexus_obs::reconstruct(events);
    let ms = |v: Vec<f64>| stats::summarize(&v);
    let waits = ms(phases
        .spans
        .iter()
        .map(|s| s.queue_wait().as_micros() as f64 / 1e3)
        .collect());
    let execs = ms(phases
        .spans
        .iter()
        .map(|s| s.exec().as_micros() as f64 / 1e3)
        .collect());
    if let Some(w) = waits {
        report.set("dispatch.queue_wait_p50_ms", w.p50);
        report.set("dispatch.queue_wait_p99_ms", w.tail);
        report.note(format!(
            "dispatch queue wait: p50 {:.3} ms, p{:.2} {:.3} ms over {} traced completions",
            w.p50,
            w.tail_q * 100.0,
            w.tail,
            w.count
        ));
    }
    if let Some(e) = execs {
        report.set("dispatch.exec_p50_ms", e.p50);
    }
    let mut drops = [0u64; 7];
    for d in &phases.drops {
        drops[drop_index(d.cause)] += 1;
    }
    for (cause, n) in DROP_CAUSES.iter().zip(drops) {
        report.set(&format!("dispatch.drop.{cause}"), n as f64);
    }
    let (mut batches, mut items, mut slots) = (0u64, 0u64, 0u64);
    for e in events {
        if let TraceEvent::Batch { size, rung, .. } = *e {
            batches += 1;
            items += u64::from(size);
            slots += u64::from(rung.max(size));
        }
    }
    if batches > 0 {
        report.set("dispatch.batch_mean", items as f64 / batches as f64);
        report.set("dispatch.rung_fill", items as f64 / slots as f64);
    }
}
