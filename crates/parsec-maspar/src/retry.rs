//! Operator-level retry around a checked parse: capped exponential backoff
//! with deterministic jitter, and transient fault-plan attenuation.
//!
//! The engine already recovers from faults *inside* one parse where that is
//! possible (probe-and-retire for dead PEs, verified double execution for
//! transients — see the crate docs). What it cannot do is outlast a fault
//! environment that defeats recovery outright: probing that keeps finding
//! new dead PEs, or an array with no healthy PEs left, surfaces as a typed
//! [`EngineError::PeFailure`] / [`EngineError::Inconsistent`]. Those are
//! exactly the errors a *service* wants to retry — on a real machine the
//! glitch (power rail droop, a flaky diagnostic run) may have cleared a few
//! milliseconds later.
//!
//! This module is that retry loop, engine-generic so the serve front-end
//! can wrap any [`Engine`]:
//!
//! * [`RetryPolicy`] — attempt cap and backoff shape. Delays are capped
//!   exponential with **full jitter** (AWS-style), but the jitter is drawn
//!   from a `shim-rand` generator seeded by `(policy seed, request key,
//!   attempt)`, so a given request's backoff schedule is reproducible
//!   run-to-run — chaos tests assert on it.
//! * [`faults_for_attempt`] — models *transient* injected fault plans: the
//!   request's [`FaultPlan`] applies to the first `transient_for` attempts
//!   and clears afterwards (a persistent plan never clears). This is how a
//!   fault-injection harness expresses "the machine was sick, then
//!   recovered".
//! * [`parse_with_retry_warm`] — the loop itself, returning both the final
//!   result and a [`RetryStats`] ledger the caller can reconcile against
//!   its own accounting.

use cdg_core::api::{Engine, ParseReport, ParseRequest, WarmState};
use cdg_core::EngineError;
use maspar_sim::FaultPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Shape of the retry loop: how many total attempts, and how long to wait
/// between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: usize,
    /// Backoff before retry `k` (1-based) is drawn uniformly from
    /// `[0, min(max_backoff, base_backoff · 2^(k-1))]`.
    pub base_backoff: Duration,
    /// Cap on any single backoff delay.
    pub max_backoff: Duration,
    /// Seed mixed into the jitter stream; fix it and the whole schedule is
    /// deterministic per request key.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 0x5EED,
        }
    }
}

/// What the retry loop did, for reconciliation with service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts actually run (1 for a first-try success).
    pub attempts: usize,
    /// Retries, i.e. `attempts - 1`.
    pub retries: u64,
    /// Total backoff slept between attempts.
    pub backoff_total: Duration,
}

/// FNV-1a over a request's identifying text — the default request key for
/// [`RetryPolicy::backoff`]. Stable across processes.
pub fn request_key(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl RetryPolicy {
    /// The backoff before 1-based retry `attempt` of the request with key
    /// `key`: capped exponential with full jitter, deterministic in
    /// `(self.seed, key, attempt)`.
    pub fn backoff(&self, key: u64, attempt: usize) -> Duration {
        assert!(
            attempt >= 1,
            "backoff precedes a retry, attempts are 1-based"
        );
        let exp = (attempt - 1).min(32) as u32;
        let ceiling = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.max_backoff);
        let ceiling_ns = ceiling.as_nanos() as u64;
        if ceiling_ns == 0 {
            return Duration::ZERO;
        }
        let mut rng = SmallRng::seed_from_u64(
            self.seed ^ key.rotate_left(17) ^ (attempt as u64).wrapping_mul(0x9E37_79B9),
        );
        Duration::from_nanos(rng.gen_range(0..=ceiling_ns))
    }
}

/// The fault plan attempt `attempt` (0-based) runs under, when the base
/// plan is transient for the first `transient_for` attempts. `None`
/// `transient_for` means the plan is persistent (applies to every
/// attempt); `Some(0)` means it never applies at all.
pub fn faults_for_attempt(
    base: Option<&FaultPlan>,
    attempt: usize,
    transient_for: Option<usize>,
) -> Option<FaultPlan> {
    let plan = base?;
    match transient_for {
        Some(window) if attempt >= window => None,
        _ => Some(plan.clone()),
    }
}

/// Run `req` on `engine` against the caller's per-worker [`WarmState`]
/// ([`Engine::parse_warm`]), retrying transient failures
/// ([`EngineError::is_transient`]) up to `policy.max_attempts` total
/// attempts with deterministic capped-exponential backoff. The request's
/// fault plan is attenuated per attempt via [`faults_for_attempt`] with
/// `transient_for`. `sleep` performs the backoff wait — inject
/// [`std::thread::sleep`] in production, a recorder in tests.
///
/// Non-transient errors and successes return immediately; the stats ledger
/// always reports exactly what happened.
pub fn parse_with_retry_warm<'g>(
    engine: &dyn Engine,
    req: &ParseRequest<'g>,
    transient_for: Option<usize>,
    policy: &RetryPolicy,
    mut sleep: impl FnMut(Duration),
    warm: &mut WarmState,
) -> (Result<ParseReport<'g>, EngineError>, RetryStats) {
    let key = req
        .sentence
        .as_ref()
        .map(|s| request_key(&s.to_string()))
        .unwrap_or(0);
    let max_attempts = policy.max_attempts.max(1);
    let mut stats = RetryStats::default();
    loop {
        let attempt = stats.attempts;
        stats.attempts += 1;
        let mut attempt_req = req.clone();
        attempt_req.faults = faults_for_attempt(req.faults.as_ref(), attempt, transient_for);
        match engine.parse_warm(&attempt_req, warm) {
            Ok(report) => return (Ok(report), stats),
            Err(e) if e.is_transient() && stats.attempts < max_attempts => {
                stats.retries += 1;
                let delay = policy.backoff(key, stats.attempts);
                stats.backoff_total += delay;
                sleep(delay);
            }
            Err(e) => return (Err(e), stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MasparOptions;
    use crate::Maspar;
    use cdg_grammar::grammars::paper;
    use maspar_sim::MachineConfig;

    /// A 4-PE array: small enough that a plan killing every PE is an
    /// unrecoverable (but typed) failure.
    fn tiny_maspar() -> Maspar {
        Maspar::with_options(MasparOptions {
            machine: MachineConfig {
                phys_pes: 4,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn lethal_plan() -> FaultPlan {
        (0..4).fold(FaultPlan::new(), |p, pe| p.with_dead_pe(pe))
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy::default();
        let key = request_key("the program runs");
        for attempt in 1..=6 {
            let a = policy.backoff(key, attempt);
            let b = policy.backoff(key, attempt);
            assert_eq!(a, b, "same (seed,key,attempt) must give the same delay");
            assert!(a <= policy.max_backoff);
        }
        // Different keys diverge somewhere in the schedule.
        let other = request_key("a different sentence");
        assert!(
            (1..=6).any(|k| policy.backoff(key, k) != policy.backoff(other, k)),
            "jitter ignored the request key"
        );
        // The exponential ceiling caps out at max_backoff.
        let late = policy.backoff(key, 40);
        assert!(late <= policy.max_backoff);
    }

    #[test]
    fn transient_plans_clear_after_their_window() {
        let plan = lethal_plan();
        assert_eq!(
            faults_for_attempt(Some(&plan), 0, Some(1)),
            Some(plan.clone())
        );
        assert_eq!(faults_for_attempt(Some(&plan), 1, Some(1)), None);
        assert_eq!(faults_for_attempt(Some(&plan), 0, Some(0)), None);
        // Persistent plans never clear.
        assert_eq!(
            faults_for_attempt(Some(&plan), 99, None),
            Some(plan.clone())
        );
        assert_eq!(faults_for_attempt(None, 0, None), None);
    }

    #[test]
    fn transient_pe_failure_recovers_on_retry() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let req = ParseRequest::new(&g)
            .sentence(s)
            .faults(lethal_plan())
            .max_parses(4);
        let mut slept = Vec::new();
        let (result, stats) = parse_with_retry_warm(
            &tiny_maspar(),
            &req,
            Some(1),
            &RetryPolicy::default(),
            |d| slept.push(d),
            &mut WarmState::new(),
        );
        let report = result.expect("attempt 2 runs fault-free");
        assert!(report.accepted);
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(slept.len(), 1);
        assert_eq!(stats.backoff_total, slept.iter().sum());
    }

    #[test]
    fn persistent_pe_failure_exhausts_attempts() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let req = ParseRequest::new(&g).sentence(s).faults(lethal_plan());
        let policy = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        let (result, stats) = parse_with_retry_warm(
            &tiny_maspar(),
            &req,
            None,
            &policy,
            |_| {},
            &mut WarmState::new(),
        );
        match result {
            Err(EngineError::PeFailure { dead, .. }) => assert!(!dead.is_empty()),
            other => panic!("expected PeFailure, got {other:?}"),
        }
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let g = paper::grammar();
        // No sentence -> GrammarError, which must not burn retries.
        let req = ParseRequest::new(&g);
        let (result, stats) = parse_with_retry_warm(
            &Maspar::default(),
            &req,
            None,
            &RetryPolicy::default(),
            |_| panic!("must not sleep"),
            &mut WarmState::new(),
        );
        assert!(matches!(result, Err(EngineError::GrammarError(_))));
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.retries, 0);
    }
}
