//! Edge admission: drop doomed or unservable work *before* it queues.
//!
//! Two independent checks run at the frontend door, in order:
//!
//! 1. **Doomed-request drop** (§5.2): a request whose deadline cannot be
//!    met even if it started executing immediately — `deadline < now +
//!    ℓ(1)` — is dead on arrival. Admitting it wastes a queue slot and a
//!    backend dispatch on work that will be thrown away.
//! 2. **Analytic overload gate**: a closed-form dynamic-batching queue
//!    model (after Inoue's M/D/1-style analysis) predicts the p99 latency
//!    at the observed arrival rate. If the prediction exceeds the SLO,
//!    the gate computes the highest sustainable rate λ* and thins
//!    arrivals to it deterministically — shedding the excess at the door
//!    with a typed cause instead of letting every queued request blow its
//!    deadline together.
//!
//! The predicted p99 at arrival rate λ for a session batching up to `b`
//! items of batched service time ℓ(b). Dynamic batching takes whatever
//! has queued (capped at b) when the GPU frees up, so an arrival waits
//! for the residual of the in-progress batch plus the queue ahead of it:
//!
//! ```text
//! ρ   = λ·ℓ(b)/b                      (utilization; ≥ 1 ⇒ unstable)
//! W   = ρ·ℓ(b)/2 + ρ·ℓ(b)/(2(1−ρ))   (residual batch + queueing delay)
//! p99 ≈ W·ln(100) + ℓ(b)
//! ```
//!
//! The tail factor `ln 100` comes from the exponential tail of the
//! waiting time; the service term ℓ(b) is deterministic and gets no tail
//! inflation. W is strictly increasing in ρ, which is what makes the
//! bisection for λ* sound.

use nexus_profile::Micros;
use nexus_runtime::DropCause;

/// What the frontend needs to know about one session to admit for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSlo {
    /// End-to-end deadline budget.
    pub slo: Micros,
    /// Smallest-feasible-rung execution latency — the ladder floor for a
    /// doomed check. Equals ℓ(1) while execution ladders keep a bottom
    /// rung of one; a profile whose smallest compiled shape is larger
    /// tightens the test accordingly.
    pub ell_min: Micros,
    /// Batched execution latency ℓ(b) at the planned batch size.
    pub ell_b: Micros,
    /// Planned batch size b.
    pub batch: u32,
}

/// Admission verdict for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admit and dispatch.
    Admit,
    /// Dead on arrival: the deadline is unmeetable even unqueued.
    DropDoomed,
    /// The overload gate shed it to keep admitted requests inside SLO.
    DropOverload,
}

impl Decision {
    /// The typed cause a dropped arrival is reported with.
    pub fn drop_cause(self) -> Option<DropCause> {
        match self {
            Decision::Admit => None,
            Decision::DropDoomed => Some(DropCause::Expired),
            Decision::DropOverload => Some(DropCause::AdmissionRejected),
        }
    }
}

/// Predicted p99 latency (µs) at arrival rate `lambda` (requests/µs).
/// `f64::INFINITY` when the queue is unstable at that rate.
pub fn predicted_p99_us(slo: &SessionSlo, lambda: f64) -> f64 {
    let ell_b = slo.ell_b.as_micros() as f64;
    let b = f64::from(slo.batch.max(1));
    if lambda <= 0.0 {
        return ell_b;
    }
    let rho = lambda * ell_b / b;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    let residual = rho * ell_b / 2.0;
    let queueing = rho * ell_b / (2.0 * (1.0 - rho));
    (residual + queueing) * 100f64.ln() + ell_b
}

/// Highest arrival rate (requests/µs) whose predicted p99 fits the SLO,
/// found by bisection — `predicted_p99_us` is strictly increasing in λ,
/// so the feasible rates are exactly `[0, λ*]`.
pub fn max_sustainable_rate(slo: &SessionSlo) -> f64 {
    let slo_us = slo.slo.as_micros() as f64;
    let ell_b = slo.ell_b.as_micros() as f64;
    if ell_b >= slo_us {
        // Even an empty system blows the SLO; nothing is sustainable.
        return 0.0;
    }
    // The stability ceiling: ρ < 1 ⇔ λ < b/ℓ(b).
    let mut hi = f64::from(slo.batch.max(1)) / ell_b;
    if predicted_p99_us(slo, hi * (1.0 - 1e-9)) <= slo_us {
        return hi;
    }
    let mut lo = 0.0f64;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if predicted_p99_us(slo, mid) <= slo_us {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Per-session admission state: an arrival-rate estimate and a
/// deterministic thinning accumulator.
///
/// The rate is the reciprocal of an EWMA of inter-arrival gaps, not an
/// EWMA of reciprocal gaps: for Poisson arrivals `E[1/gap]` is unbounded
/// (short gaps dominate), so averaging `1/gap` reads well above the true
/// rate and sheds load the queue could carry.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    slo: SessionSlo,
    /// λ* from the analytic model, requests/µs.
    sustainable: f64,
    /// EWMA of the inter-arrival gap, µs. 0 until two arrivals seen.
    gap: f64,
    last_arrival: Option<Micros>,
    /// Thinning credit: each arrival earns `λ*/λ`; admission spends 1.
    credit: f64,
    admitted: u64,
    doomed: u64,
    shed: u64,
}

/// EWMA weight for each new inter-arrival gap. Small enough to ride
/// out single-packet jitter, large enough to track a rate step within a
/// few tens of arrivals.
const RATE_ALPHA: f64 = 0.05;

/// Gaps the gate observes before it may shed: one EWMA window, 1/α.
/// Until then the estimate rests on a handful of gaps, and a burst of
/// clients opening at once would read as a sustained overload.
const WARMUP_GAPS: u64 = (1.0 / RATE_ALPHA) as u64;

impl AdmissionGate {
    /// A gate for one session.
    pub fn new(slo: SessionSlo) -> Self {
        let sustainable = max_sustainable_rate(&slo);
        AdmissionGate {
            slo,
            sustainable,
            gap: 0.0,
            last_arrival: None,
            credit: 0.0,
            admitted: 0,
            doomed: 0,
            shed: 0,
        }
    }

    /// The session parameters the gate was built from.
    pub fn slo(&self) -> SessionSlo {
        self.slo
    }

    /// λ* — the model's highest sustainable arrival rate, requests/µs.
    pub fn sustainable_rate(&self) -> f64 {
        self.sustainable
    }

    /// Current arrival-rate estimate, requests/µs (0 until two arrivals).
    pub fn observed_rate(&self) -> f64 {
        if self.gap > 0.0 {
            1.0 / self.gap
        } else {
            0.0
        }
    }

    /// Counters: (admitted, dropped doomed, shed by the overload gate).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.admitted, self.doomed, self.shed)
    }

    /// Judges one arrival at `now` with absolute deadline `deadline`.
    pub fn admit(&mut self, now: Micros, deadline: Micros) -> Decision {
        // Rate estimate first: every arrival is load, even one we drop.
        if let Some(last) = self.last_arrival {
            let dt = now.saturating_sub(last).as_micros().max(1) as f64;
            self.gap = if self.gap == 0.0 {
                dt
            } else {
                (1.0 - RATE_ALPHA) * self.gap + RATE_ALPHA * dt
            };
        }
        self.last_arrival = Some(now);
        let rate = self.observed_rate();

        // §5.2 doomed check against the execution floor.
        if deadline < now + self.slo.ell_min {
            self.doomed += 1;
            return Decision::DropDoomed;
        }

        // Overload gate: thin to λ* when the observed rate exceeds it.
        // Every earlier arrival bumped exactly one counter, so their sum
        // is the number of gaps seen, this arrival's included.
        let gaps = self.admitted + self.doomed + self.shed;
        if gaps >= WARMUP_GAPS && rate > self.sustainable && self.sustainable > 0.0 {
            self.credit += self.sustainable / rate;
            if self.credit >= 1.0 {
                self.credit -= 1.0;
            } else {
                self.shed += 1;
                return Decision::DropOverload;
            }
        } else {
            // Under the limit: full credit, no debt carried forward.
            self.credit = self.credit.min(1.0);
        }
        self.admitted += 1;
        Decision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo_100ms() -> SessionSlo {
        SessionSlo {
            slo: Micros::from_millis(100),
            ell_min: Micros::from_millis(10),
            ell_b: Micros::from_millis(40),
            batch: 8,
        }
    }

    #[test]
    fn the_model_is_monotonic_and_bounded_by_stability() {
        let slo = slo_100ms();
        let empty = predicted_p99_us(&slo, 0.0);
        assert_eq!(empty, 40_000.0, "empty system costs one batch");
        let lam_star = max_sustainable_rate(&slo);
        assert!(lam_star > 0.0);
        // Feasible at λ*, infeasible just above it.
        assert!(predicted_p99_us(&slo, lam_star * 0.999) <= 100_000.0);
        assert!(predicted_p99_us(&slo, lam_star * 1.05) > 100_000.0);
        // λ* respects the stability ceiling b/ℓ(b) = 8/40000 = 2e-4.
        assert!(lam_star <= 8.0 / 40_000.0 + 1e-12);
    }

    #[test]
    fn impossible_slos_admit_nothing_sustainably() {
        let slo = SessionSlo {
            slo: Micros::from_millis(10),
            ell_min: Micros::from_millis(10),
            ell_b: Micros::from_millis(40),
            batch: 8,
        };
        assert_eq!(max_sustainable_rate(&slo), 0.0);
    }

    #[test]
    fn doomed_requests_drop_at_the_door() {
        let mut gate = AdmissionGate::new(slo_100ms());
        let now = Micros::from_secs(1);
        // Deadline closer than ℓ(1): dead on arrival.
        let d = gate.admit(now, now + Micros::from_millis(5));
        assert_eq!(d, Decision::DropDoomed);
        assert_eq!(d.drop_cause(), Some(DropCause::Expired));
        // A healthy deadline at a polite arrival rate admits.
        let later = now + Micros::from_millis(50);
        let d = gate.admit(later, later + Micros::from_millis(100));
        assert_eq!(d, Decision::Admit);
        assert_eq!(d.drop_cause(), None);
    }

    #[test]
    fn overload_thins_to_the_sustainable_rate() {
        let slo = slo_100ms();
        let mut gate = AdmissionGate::new(slo);
        let lam_star = gate.sustainable_rate();
        // Arrivals at 4× the sustainable rate.
        let gap = Micros::from_micros((1.0 / (4.0 * lam_star)) as u64);
        let mut now = Micros::ZERO;
        let (mut admitted, mut shed) = (0u64, 0u64);
        for _ in 0..4000 {
            now += gap;
            match gate.admit(now, now + slo.slo) {
                Decision::Admit => admitted += 1,
                Decision::DropOverload => shed += 1,
                Decision::DropDoomed => unreachable!("deadline is healthy"),
            }
        }
        assert_eq!(
            Decision::DropOverload.drop_cause(),
            Some(DropCause::AdmissionRejected)
        );
        // Roughly one in four admitted once the EWMA converges.
        let frac = admitted as f64 / (admitted + shed) as f64;
        assert!(
            (0.2..=0.35).contains(&frac),
            "admitted fraction {frac} should approach 1/4"
        );
    }

    #[test]
    fn a_polite_arrival_rate_is_never_shed() {
        let slo = slo_100ms();
        let mut gate = AdmissionGate::new(slo);
        let lam_star = gate.sustainable_rate();
        let gap = Micros::from_micros((2.0 / lam_star) as u64); // half λ*
        let mut now = Micros::ZERO;
        for _ in 0..1000 {
            now += gap;
            assert_eq!(gate.admit(now, now + slo.slo), Decision::Admit);
        }
        let (admitted, doomed, shed) = gate.counters();
        assert_eq!((admitted, doomed, shed), (1000, 0, 0));
    }

    #[test]
    fn a_burst_at_start_up_is_not_mistaken_for_overload() {
        // Clients opening together: their first submits land microseconds
        // apart, far above λ* if two gaps were a rate.
        let slo = slo_100ms();
        let mut gate = AdmissionGate::new(slo);
        let mut now = Micros::from_secs(1);
        for _ in 0..8 {
            now += Micros::from_micros(1);
            assert_eq!(gate.admit(now, now + slo.slo), Decision::Admit);
        }
        assert!(gate.observed_rate() > gate.sustainable_rate());
    }

    #[test]
    fn poisson_arrivals_at_half_the_sustainable_rate_are_neither_shed_nor_overestimated() {
        use nexus_workload::{exp_sample, rng_for};

        let slo = slo_100ms();
        let mut gate = AdmissionGate::new(slo);
        let lambda = gate.sustainable_rate() / 2.0;
        let mut rng = rng_for(7, 0xad);
        let mut t = 0.0f64;
        let mut estimates = Vec::new();
        for i in 0..4000 {
            t += exp_sample(&mut rng, lambda);
            let now = Micros::from_micros(t.round() as u64);
            assert_ne!(gate.admit(now, now + slo.slo), Decision::DropOverload);
            // Past the EWMA's warm-up, record what the gate believes.
            if i >= 100 {
                estimates.push(gate.observed_rate());
            }
        }
        assert_eq!(gate.counters().2, 0, "no overload sheds below λ*");
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!(
            (mean / lambda - 1.0).abs() <= 0.15,
            "estimated {mean} vs true {lambda} requests/µs"
        );
    }
}
