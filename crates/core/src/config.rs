use crate::{CoreError, Result};

/// Tunables of the derivation pipeline.
///
/// Defaults reproduce the paper's formulas exactly; the switches exist for
/// the ablation experiments (DESIGN.md A1/A2).
#[derive(Debug, Clone, PartialEq)]
pub struct DeriveConfig {
    /// Maximum iterations of the quality ⇄ rater-reputation fixed point
    /// (Eq. 1 ⇄ Eq. 2). The paper does not state its iteration count; the
    /// fixed point typically converges in well under 50 iterations.
    pub fixpoint_max_iters: usize,
    /// Convergence tolerance: stop when no rater reputation moves by more
    /// than this between sweeps.
    pub fixpoint_tolerance: f64,
    /// Apply the `1 − 1/(n+1)` experience discount of Eqs. 2–3
    /// (`false` = ablation A1).
    pub experience_discount: bool,
    /// Quality assigned to reviews that received no ratings (they still
    /// count toward the writer's review total `n^w`). The paper leaves this
    /// case unspecified; `0.0` is the conservative reading of Eq. 3.
    pub unrated_review_quality: f64,
    /// Rater reputation before the first sweep. `1.0` makes the first
    /// quality estimate the plain mean of received ratings.
    pub initial_rater_reputation: f64,
    /// Run the per-category fixed points of [`pipeline::derive`] on worker
    /// threads. Output is **bit-identical** to the sequential path (each
    /// category's computation is self-contained and results are assembled
    /// in category order), so this is purely a throughput knob.
    ///
    /// [`pipeline::derive`]: crate::pipeline::derive
    pub parallel: bool,
    /// Worker-thread count when [`parallel`](Self::parallel) is on;
    /// `0` = all available hardware threads.
    pub threads: usize,
    /// Route [`IncrementalDerived::refresh`] /
    /// [`refresh_all`](crate::IncrementalDerived::refresh_all) through the
    /// **delta worklist solver**: a new rating seeds a worklist with its
    /// one review and one rater, and updates propagate through the
    /// bipartite incidence structure only while a node moves by more than
    /// [`delta_tolerance`](Self::delta_tolerance). Off by default — the
    /// full warm sweep stays the oracle; the canonical
    /// [`to_derived`](crate::IncrementalDerived::to_derived) snapshot is
    /// unaffected either way (it always cold-solves).
    ///
    /// [`IncrementalDerived::refresh`]: crate::IncrementalDerived::refresh
    pub delta_refresh: bool,
    /// Push or pull, per pass of the delta solver: when the active
    /// frontier (dirty reviews + dirty raters about to be recomputed)
    /// exceeds this fraction of the category's nodes, the pass is dense —
    /// every review, then every rater, as the full warm sweep does it —
    /// and otherwise it drains the worklist (a wide frontier means the
    /// worklist's bookkeeping costs more than the dense loop it avoids).
    /// Each pass decides from its own frontier; none is abandoned.
    /// Boundary semantics: at `0.0` a delta refresh *is* the full warm
    /// sweep — it runs it at [`fixpoint_tolerance`](Self::fixpoint_tolerance),
    /// bit for bit and whatever [`delta_tolerance`](Self::delta_tolerance)
    /// is; at `1.0` no pass is dense (the frontier cannot exceed the whole
    /// category). Must be in `[0, 1]`.
    pub delta_frontier_threshold: f64,
    /// The delta solver's propagation cut-off: a node whose value moves by
    /// more than this dirties its neighbours, and a dense pass of the
    /// delta solve hands on the reviews of raters that moved past it.
    /// Read by the delta solve alone — cold solves, the full warm sweep
    /// and the canonical snapshot converge to
    /// [`fixpoint_tolerance`](Self::fixpoint_tolerance). Looser than that
    /// by default: the warm state only has to stay within `1e-6` of the
    /// cold solve, and the model's residual audit re-sweeps a category
    /// whose fixed-point residual drifts past a tenth of that. Must be
    /// non-negative.
    pub delta_tolerance: f64,
}

impl Default for DeriveConfig {
    fn default() -> Self {
        Self {
            fixpoint_max_iters: 50,
            fixpoint_tolerance: 1e-9,
            experience_discount: true,
            unrated_review_quality: 0.0,
            initial_rater_reputation: 1.0,
            parallel: true,
            threads: 0,
            delta_refresh: false,
            delta_frontier_threshold: 0.25,
            delta_tolerance: 1e-8,
        }
    }
}

impl DeriveConfig {
    /// Starts a validating [`DeriveConfigBuilder`] over the defaults.
    /// Prefer this over struct-literal construction: the builder runs
    /// [`validate`](Self::validate) at build time, so an off-range knob
    /// fails where it was written instead of inside the pipeline call
    /// that first consumes the config.
    pub fn builder() -> DeriveConfigBuilder {
        DeriveConfigBuilder {
            cfg: DeriveConfig::default(),
        }
    }

    /// A [`DeriveConfigBuilder`] seeded with this config's fields — the
    /// validating analogue of struct-update syntax
    /// (`DeriveConfig { x, ..cfg.clone() }` becomes
    /// `cfg.to_builder().x(..).build()?`).
    pub fn to_builder(&self) -> DeriveConfigBuilder {
        DeriveConfigBuilder { cfg: self.clone() }
    }

    /// Validates all fields; called by the pipeline entry points.
    pub fn validate(&self) -> Result<()> {
        if self.fixpoint_max_iters == 0 {
            return Err(CoreError::InvalidConfig(
                "fixpoint_max_iters must be at least 1".into(),
            ));
        }
        if self.fixpoint_tolerance.is_nan() || self.fixpoint_tolerance < 0.0 {
            return Err(CoreError::InvalidConfig(
                "fixpoint_tolerance must be non-negative".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.unrated_review_quality) {
            return Err(CoreError::InvalidConfig(
                "unrated_review_quality must be in [0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.initial_rater_reputation)
            || self.initial_rater_reputation == 0.0
        {
            return Err(CoreError::InvalidConfig(
                "initial_rater_reputation must be in (0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.delta_frontier_threshold) {
            return Err(CoreError::InvalidConfig(
                "delta_frontier_threshold must be in [0, 1]".into(),
            ));
        }
        if self.delta_tolerance.is_nan() || self.delta_tolerance < 0.0 {
            return Err(CoreError::InvalidConfig(
                "delta_tolerance must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Worker threads the pipeline should use: `1` when
    /// [`parallel`](Self::parallel) is off, otherwise
    /// [`threads`](Self::threads) resolved against the hardware.
    pub fn effective_threads(&self) -> usize {
        if self.parallel {
            wot_par::resolve_threads(self.threads)
        } else {
            1
        }
    }

    /// The experience discount factor `1 − 1/(n+1)` for `n` contributions,
    /// or `1.0` when the discount is ablated.
    pub fn discount(&self, n: usize) -> f64 {
        if self.experience_discount {
            1.0 - 1.0 / (n as f64 + 1.0)
        } else {
            1.0
        }
    }
}

/// Validating builder for [`DeriveConfig`] — the supported construction
/// path for non-default configs (struct literals remain possible, but
/// only the builder validates eagerly).
#[derive(Debug, Clone)]
pub struct DeriveConfigBuilder {
    cfg: DeriveConfig,
}

impl DeriveConfigBuilder {
    /// Maximum fixed-point sweeps (must be ≥ 1).
    pub fn fixpoint_max_iters(mut self, n: usize) -> Self {
        self.cfg.fixpoint_max_iters = n;
        self
    }

    /// Convergence tolerance (must be non-negative).
    pub fn fixpoint_tolerance(mut self, tol: f64) -> Self {
        self.cfg.fixpoint_tolerance = tol;
        self
    }

    /// Toggle the Eq. 2–3 experience discount (ablation A1 when off).
    pub fn experience_discount(mut self, on: bool) -> Self {
        self.cfg.experience_discount = on;
        self
    }

    /// Quality assigned to unrated reviews (must be in `[0, 1]`).
    pub fn unrated_review_quality(mut self, q: f64) -> Self {
        self.cfg.unrated_review_quality = q;
        self
    }

    /// Rater reputation before the first sweep (must be in `(0, 1]`).
    pub fn initial_rater_reputation(mut self, r: f64) -> Self {
        self.cfg.initial_rater_reputation = r;
        self
    }

    /// Run per-category solves on worker threads (bit-identical output).
    pub fn parallel(mut self, on: bool) -> Self {
        self.cfg.parallel = on;
        self
    }

    /// Worker threads when parallel (`0` = all hardware threads).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Sets `parallel`/`threads` together from a single intent: `1`
    /// means strictly sequential, anything else the parallel path with
    /// that thread count (`0` = all hardware threads).
    pub fn thread_count(mut self, n: usize) -> Self {
        self.cfg.parallel = n != 1;
        self.cfg.threads = n;
        self
    }

    /// Route refreshes through the delta worklist solver.
    pub fn delta_refresh(mut self, on: bool) -> Self {
        self.cfg.delta_refresh = on;
        self
    }

    /// Frontier fraction above which a pass of the delta solver is dense
    /// (must be in `[0, 1]`).
    pub fn delta_frontier_threshold(mut self, t: f64) -> Self {
        self.cfg.delta_frontier_threshold = t;
        self
    }

    /// The delta solver's propagation cut-off (must be non-negative).
    pub fn delta_tolerance(mut self, tol: f64) -> Self {
        self.cfg.delta_tolerance = tol;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<DeriveConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DeriveConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let cfg = DeriveConfig::builder()
            .fixpoint_max_iters(10)
            .fixpoint_tolerance(1e-6)
            .experience_discount(false)
            .unrated_review_quality(0.5)
            .initial_rater_reputation(0.5)
            .thread_count(1)
            .delta_refresh(true)
            .delta_frontier_threshold(0.75)
            .delta_tolerance(3e-8)
            .build()
            .unwrap();
        assert_eq!(cfg.fixpoint_max_iters, 10);
        assert_eq!(cfg.delta_tolerance, 3e-8);
        assert_eq!(cfg.fixpoint_tolerance, 1e-6);
        assert!(!cfg.experience_discount);
        assert!(!cfg.parallel);
        assert_eq!(cfg.effective_threads(), 1);
        assert!(cfg.delta_refresh);

        assert!(DeriveConfig::builder()
            .fixpoint_max_iters(0)
            .build()
            .is_err());
        assert!(DeriveConfig::builder()
            .initial_rater_reputation(0.0)
            .build()
            .is_err());
        assert!(DeriveConfig::builder()
            .delta_frontier_threshold(1.5)
            .build()
            .is_err());
        assert!(DeriveConfig::builder()
            .delta_tolerance(-1e-8)
            .build()
            .is_err());
        // The default build equals Default::default() field for field.
        assert_eq!(
            DeriveConfig::builder().build().unwrap(),
            DeriveConfig::default()
        );
    }

    #[test]
    fn invalid_fields() {
        let c = DeriveConfig {
            fixpoint_max_iters: 0,
            ..DeriveConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DeriveConfig {
            fixpoint_tolerance: f64::NAN,
            ..DeriveConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DeriveConfig {
            unrated_review_quality: 1.5,
            ..DeriveConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DeriveConfig {
            initial_rater_reputation: 0.0,
            ..DeriveConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DeriveConfig {
            delta_frontier_threshold: 1.5,
            ..DeriveConfig::default()
        };
        assert!(c.validate().is_err());
        let c = DeriveConfig {
            delta_frontier_threshold: f64::NAN,
            ..DeriveConfig::default()
        };
        assert!(c.validate().is_err());
        for tol in [f64::NAN, -1e-8, f64::NEG_INFINITY] {
            let c = DeriveConfig {
                delta_tolerance: tol,
                ..DeriveConfig::default()
            };
            assert!(c.validate().is_err(), "delta_tolerance {tol}");
        }
        // Zero is a legal cut-off: every move propagates.
        DeriveConfig {
            delta_tolerance: 0.0,
            ..DeriveConfig::default()
        }
        .validate()
        .unwrap();
        // Both boundary values are legal (0 = every pass dense, 1 = none).
        for t in [0.0, 1.0] {
            let c = DeriveConfig {
                delta_frontier_threshold: t,
                delta_refresh: true,
                ..DeriveConfig::default()
            };
            c.validate().unwrap();
        }
    }

    #[test]
    fn effective_threads_honours_knobs() {
        let seq = DeriveConfig {
            parallel: false,
            threads: 8,
            ..DeriveConfig::default()
        };
        assert_eq!(seq.effective_threads(), 1);
        let fixed = DeriveConfig {
            parallel: true,
            threads: 3,
            ..DeriveConfig::default()
        };
        assert_eq!(fixed.effective_threads(), 3);
        let auto = DeriveConfig {
            parallel: true,
            threads: 0,
            ..DeriveConfig::default()
        };
        assert_eq!(auto.effective_threads(), wot_par::max_threads());
    }

    #[test]
    fn discount_formula() {
        let c = DeriveConfig::default();
        assert!((c.discount(1) - 0.5).abs() < 1e-12);
        assert!((c.discount(2) - 2.0 / 3.0).abs() < 1e-12);
        let c = DeriveConfig {
            experience_discount: false,
            ..DeriveConfig::default()
        };
        assert_eq!(c.discount(1), 1.0);
    }
}
