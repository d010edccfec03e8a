//! Deterministic, seeded fault injection for the serving stack.
//!
//! A [`FaultPlan`] names a ChaCha8 seed plus per-site injection rates; the
//! server consults it at two points — replay entry and worker pickup — and
//! the chaos tests drive the whole retry/supervision/breaker machinery
//! through it. Each decision is a pure function of `(seed, site, draw
//! index)`, so a given plan replays the same fault sequence on every run
//! regardless of wall-clock timing (thread interleaving can still reorder
//! which *request* hits draw `n`, but the fault pattern itself is fixed).
//!
//! Plans come from [`FaultPlan::parse`] or the `FEATHER_FAULT_PLAN`
//! environment variable, e.g.:
//!
//! ```text
//! FEATHER_FAULT_PLAN="seed=7;replay.fail=0.15;replay.panic=0.05;pickup.panic=0.02"
//! ```
//!
//! Sites are `replay` ([`FaultSite::ReplayEntry`]) and `pickup`
//! ([`FaultSite::WorkerPickup`]); actions are `.fail` (a transient
//! executor error, eligible for retry) and `.panic` (an injected panic that
//! exercises `catch_unwind` supervision and worker respawn). `.fail_first=N`
//! / `.panic_first=N` fire deterministically on the first `N` draws at a
//! site — the precise tool for "first attempt fails, retry succeeds" tests.
//!
//! An empty plan parses to `None`, and the server stores `Option<FaultPlan>`
//! — the hot path pays one pointer-null check when no plan is loaded.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Where in the serving pipeline a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Entry of a program replay on an executor worker (`replay`). Supports
    /// `fail` and `panic`.
    ReplayEntry = 0,
    /// A worker taking up the batch it has just formed, after handing the
    /// lead on (`pickup`). `panic` here unwinds the whole worker thread —
    /// the supervision and respawn path — while `fail` fails the batch
    /// without running it.
    WorkerPickup = 1,
}

impl FaultSite {
    const ALL: [FaultSite; 2] = [FaultSite::ReplayEntry, FaultSite::WorkerPickup];

    fn token(self) -> &'static str {
        match self {
            FaultSite::ReplayEntry => "replay",
            FaultSite::WorkerPickup => "pickup",
        }
    }
}

/// What an injection decision asks the pipeline to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return a transient executor error (retryable).
    Fail,
    /// Panic, as a crashed replay would.
    Panic,
}

/// Per-site injection configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SiteRates {
    /// Probability in `[0, 1]` that a draw fails.
    fail: f64,
    /// Probability in `[0, 1]` that a draw panics (checked before `fail`).
    panic: f64,
    /// The first `n` draws fail deterministically (before any rate applies).
    fail_first: u64,
    /// The first `n` draws panic deterministically (checked before
    /// `fail_first`).
    panic_first: u64,
}

impl SiteRates {
    fn is_empty(&self) -> bool {
        self.fail == 0.0 && self.panic == 0.0 && self.fail_first == 0 && self.panic_first == 0
    }
}

/// A probability clamped to `[0, 1]`; `None` for NaN and the infinities,
/// which no clamp turns into a rate (`NaN.clamp(0.0, 1.0)` is still NaN: a
/// rate that never fires yet makes its plan non-empty).
fn finite_rate(rate: f64) -> Option<f64> {
    rate.is_finite().then(|| rate.clamp(0.0, 1.0))
}

/// A deterministic injection schedule over the two [`FaultSite`]s.
///
/// Construct with [`FaultPlan::parse`]/[`FaultPlan::from_env`] or the
/// builder methods, hand it to
/// [`Server::with_fault_plan`](crate::Server::with_fault_plan). Each call to
/// [`FaultPlan::roll`] consumes one draw at its site.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteRates; 2],
    /// Draws consumed per site; the only mutable state, so one plan can be
    /// shared across every server thread.
    draws: [AtomicU64; 2],
}

impl FaultPlan {
    /// An inert plan with `seed`; add faults with the `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the transient-failure probability at `site` (clamped to [0, 1];
    /// a non-finite rate injects nothing).
    #[must_use]
    pub fn with_fail(mut self, site: FaultSite, rate: f64) -> Self {
        self.sites[site as usize].fail = finite_rate(rate).unwrap_or(0.0);
        self
    }

    /// Sets the panic probability at `site` (clamped to [0, 1]; a
    /// non-finite rate injects nothing).
    #[must_use]
    pub fn with_panic(mut self, site: FaultSite, rate: f64) -> Self {
        self.sites[site as usize].panic = finite_rate(rate).unwrap_or(0.0);
        self
    }

    /// Makes the first `n` draws at `site` fail deterministically.
    #[must_use]
    pub fn with_fail_first(mut self, site: FaultSite, n: u64) -> Self {
        self.sites[site as usize].fail_first = n;
        self
    }

    /// Makes the first `n` draws at `site` panic deterministically.
    #[must_use]
    pub fn with_panic_first(mut self, site: FaultSite, n: u64) -> Self {
        self.sites[site as usize].panic_first = n;
        self
    }

    /// Whether the plan injects nothing anywhere.
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(SiteRates::is_empty)
    }

    /// Parses the `FEATHER_FAULT_PLAN` format: `;`-separated `key=value`
    /// pairs, keys being `seed` or `<site>.<action>[_first]` with sites
    /// `replay`/`pickup` and actions `fail`/`panic`.
    /// Returns `None` for an empty/whitespace string or a plan that injects
    /// nothing; unknown or malformed pairs — a non-finite rate among them —
    /// are ignored (an injection plan must never take the server down by
    /// itself).
    pub fn parse(text: &str) -> Option<FaultPlan> {
        let mut plan = FaultPlan::default();
        for pair in text.split(';') {
            let Some((key, value)) = pair.split_once('=') else {
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                if let Ok(seed) = value.parse() {
                    plan.seed = seed;
                }
                continue;
            }
            let Some((site_tok, action)) = key.split_once('.') else {
                continue;
            };
            let Some(site) = FaultSite::ALL.iter().find(|s| s.token() == site_tok) else {
                continue;
            };
            let rates = &mut plan.sites[*site as usize];
            match action {
                "fail" => {
                    if let Some(rate) = value.parse().ok().and_then(finite_rate) {
                        rates.fail = rate;
                    }
                }
                "panic" => {
                    if let Some(rate) = value.parse().ok().and_then(finite_rate) {
                        rates.panic = rate;
                    }
                }
                "fail_first" => {
                    if let Ok(n) = value.parse() {
                        rates.fail_first = n;
                    }
                }
                "panic_first" => {
                    if let Ok(n) = value.parse() {
                        rates.panic_first = n;
                    }
                }
                _ => {}
            }
        }
        if plan.is_empty() {
            None
        } else {
            Some(plan)
        }
    }

    /// [`FaultPlan::parse`] of `FEATHER_FAULT_PLAN`; `None` when unset or
    /// inert.
    pub fn from_env() -> Option<FaultPlan> {
        FaultPlan::parse(&std::env::var("FEATHER_FAULT_PLAN").ok()?)
    }

    /// Consumes one draw at `site` and returns the injected action, if any.
    /// Deterministic in `(seed, site, draw index)`.
    pub fn roll(&self, site: FaultSite) -> Option<FaultAction> {
        let rates = &self.sites[site as usize];
        if rates.is_empty() {
            return None;
        }
        let draw = self.draws[site as usize].fetch_add(1, Ordering::Relaxed);
        if draw < rates.panic_first {
            return Some(FaultAction::Panic);
        }
        if draw < rates.panic_first.saturating_add(rates.fail_first) {
            return Some(FaultAction::Fail);
        }
        if rates.panic == 0.0 && rates.fail == 0.0 {
            return None;
        }
        // One cheap ChaCha block keyed by (seed, site, draw): decisions are
        // independent across draws and reproducible across runs.
        let key = self
            .seed
            .wrapping_add((site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(draw.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u < rates.panic {
            Some(FaultAction::Panic)
        } else if u < rates.panic + rates.fail {
            Some(FaultAction::Fail)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two sites' tokens, then two that name no site: their pairs are
    /// ignored, never a panic.
    const SITES: [&str; 4] = ["replay", "pickup", "artifact", "insert"];
    const ACTIONS: [&str; 4] = ["fail", "panic", "fail_first", "panic_first"];
    /// The numbers a rate or count parser is most likely to mishandle.
    const VALUES: [&str; 14] = [
        "0",
        "1",
        "0.5",
        "-1",
        "1e308",
        "1e-320",
        "NaN",
        "-nan",
        "inf",
        "-infinity",
        "18446744073709551615",
        "18446744073709551616",
        "",
        " 7 ",
    ];

    proptest! {
        /// No string panics `parse` — neither arbitrary characters nor the
        /// grammar's own `<site>.<action>=` pairs around extreme numbers —
        /// and whatever plan comes back rolls at every site, well past its
        /// first draw, without panicking.
        #[test]
        fn hostile_plans_never_panic(
            // One cell per (site, action): an index into `VALUES`, or absent.
            cells in proptest::collection::vec(0usize..VALUES.len() + 4, 16),
            noise in "[seedrplayticfnkup_.=; 0189+NIé\u{0}-]{0,24}",
            at in 0usize..17,
        ) {
            let mut pairs: Vec<String> = cells
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| {
                    let (site, action) = (SITES[i / 4], ACTIONS[i % 4]);
                    Some(format!("{site}.{action}={}", VALUES.get(v)?))
                })
                .collect();
            pairs.insert(at.min(pairs.len()), noise.clone());
            for text in [pairs.join(";"), pairs.concat(), noise] {
                let Some(plan) = FaultPlan::parse(&text) else { continue };
                prop_assert!(!plan.is_empty());
                for site in FaultSite::ALL {
                    for _ in 0..64 {
                        plan.roll(site);
                    }
                }
            }
        }
    }

    #[test]
    fn parse_reads_sites_seed_and_clamps() {
        let plan = FaultPlan::parse(
            "seed=42; replay.fail=0.5; pickup.panic=7.0; artifact.fail_first=3; insert.fail=1",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.sites[FaultSite::ReplayEntry as usize].fail, 0.5);
        assert_eq!(plan.sites[FaultSite::WorkerPickup as usize].panic, 1.0);
        // No site is named `artifact` or `insert`: those pairs set nothing.
        assert!(plan.sites.iter().all(|s| s.fail_first == 0));
        assert_eq!(plan.sites[FaultSite::WorkerPickup as usize].fail, 0.0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_or_inert_plans_parse_to_none() {
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("seed=9").is_none());
        assert!(FaultPlan::parse("replay.fail=0.0").is_none());
        assert!(FaultPlan::parse("garbage;;also=bad.keys").is_none());
        assert!(FaultPlan::parse("artifact.fail=1.0;insert.fail_first=3").is_none());
        // NaN survives `clamp`: accepted, it would never fire yet make the
        // plan non-empty. Non-finite rates are malformed pairs.
        assert!(FaultPlan::parse("replay.fail=NaN;pickup.panic=inf;insert.fail=-inf").is_none());
        assert!(FaultPlan::seeded(1)
            .with_fail(FaultSite::ReplayEntry, f64::NAN)
            .is_empty());
        let plan = FaultPlan::parse("replay.fail=0.5;replay.fail=NaN").unwrap();
        assert_eq!(plan.sites[FaultSite::ReplayEntry as usize].fail, 0.5);
    }

    #[test]
    fn first_n_draws_fire_deterministically_then_stop() {
        let plan = FaultPlan::seeded(1).with_fail_first(FaultSite::ReplayEntry, 2);
        assert_eq!(plan.roll(FaultSite::ReplayEntry), Some(FaultAction::Fail));
        assert_eq!(plan.roll(FaultSite::ReplayEntry), Some(FaultAction::Fail));
        for _ in 0..32 {
            assert_eq!(plan.roll(FaultSite::ReplayEntry), None);
        }
        // Other sites are untouched.
        assert_eq!(plan.roll(FaultSite::WorkerPickup), None);
    }

    #[test]
    fn panic_first_outranks_fail_first() {
        let plan = FaultPlan::seeded(1)
            .with_panic_first(FaultSite::WorkerPickup, 1)
            .with_fail_first(FaultSite::WorkerPickup, 1);
        assert_eq!(plan.roll(FaultSite::WorkerPickup), Some(FaultAction::Panic));
        assert_eq!(plan.roll(FaultSite::WorkerPickup), Some(FaultAction::Fail));
        assert_eq!(plan.roll(FaultSite::WorkerPickup), None);
        // Counts that sum past `u64::MAX` mean "fail forever": no overflow
        // panic (debug), no wrap to "never fail" (release).
        let plan = FaultPlan::seeded(1)
            .with_panic_first(FaultSite::WorkerPickup, 1)
            .with_fail_first(FaultSite::WorkerPickup, u64::MAX);
        assert_eq!(plan.roll(FaultSite::WorkerPickup), Some(FaultAction::Panic));
        assert_eq!(plan.roll(FaultSite::WorkerPickup), Some(FaultAction::Fail));
    }

    #[test]
    fn rate_draws_are_deterministic_per_seed_and_roughly_calibrated() {
        let sequence = |seed: u64| -> Vec<Option<FaultAction>> {
            let plan = FaultPlan::seeded(seed)
                .with_fail(FaultSite::ReplayEntry, 0.3)
                .with_panic(FaultSite::ReplayEntry, 0.1);
            (0..256)
                .map(|_| plan.roll(FaultSite::ReplayEntry))
                .collect()
        };
        let a = sequence(77);
        assert_eq!(a, sequence(77), "same seed must replay the same faults");
        assert_ne!(a, sequence(78), "different seeds must differ");
        let fails = a.iter().filter(|d| **d == Some(FaultAction::Fail)).count();
        let panics = a.iter().filter(|d| **d == Some(FaultAction::Panic)).count();
        // Loose 3-sigma-ish bounds: the point is "both actions actually
        // fire at plausible frequency", not distribution testing.
        assert!((30..125).contains(&fails), "fails={fails}");
        assert!((5..60).contains(&panics), "panics={panics}");
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::seeded(3).with_fail(FaultSite::WorkerPickup, 1.0);
        for _ in 0..16 {
            assert_eq!(plan.roll(FaultSite::WorkerPickup), Some(FaultAction::Fail));
        }
    }
}
