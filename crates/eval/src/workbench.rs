use wot_core::{binarize, pipeline, DeriveConfig, Derived};
use wot_sparse::Csr;
use wot_synth::{generate, SynthConfig, SynthOutput};

use crate::Result;

/// Shared experiment setup: a generated community, the derived model, and
/// the two evaluation matrices every experiment needs.
#[derive(Debug, Clone)]
pub struct Workbench {
    /// Generated dataset (observable store + latent truth).
    pub out: SynthOutput,
    /// The derived model (`E`, `A`, per-category reputations).
    pub derived: Derived,
    /// Direct-connection matrix `R`.
    pub r: Csr,
    /// Explicit trust matrix `T`.
    pub t: Csr,
    /// The derive config used (kept for ablation bookkeeping).
    pub derive_config: DeriveConfig,
}

impl Workbench {
    /// Generates a community and derives the model in one step.
    pub fn new(synth: &SynthConfig, derive_cfg: &DeriveConfig) -> Result<Self> {
        let out = generate(synth)?;
        Self::from_output(out, derive_cfg)
    }

    /// Builds a workbench from an existing generated dataset.
    pub fn from_output(out: SynthOutput, derive_cfg: &DeriveConfig) -> Result<Self> {
        let derived = pipeline::derive(&out.store, derive_cfg)?;
        let r = out.store.direct_connection_matrix();
        let t = out.store.trust_matrix();
        Ok(Self {
            out,
            derived,
            r,
            t,
            derive_config: derive_cfg.clone(),
        })
    }

    /// Our model's continuous scores `T̂` on the evaluation region `R`.
    pub fn scores_ours(&self) -> Result<Csr> {
        Ok(self.derived.trust_on_mask(&self.r)?)
    }

    /// The baseline's continuous scores `B` (mean rating given), which
    /// live on exactly the same pattern as `R` by construction.
    pub fn scores_baseline(&self) -> Csr {
        self.out.store.baseline_matrix()
    }

    /// Above this user count, full-support thresholds are estimated from a
    /// deterministic column sample instead of scanning all U columns.
    const EXACT_SUPPORT_LIMIT: usize = 10_000;
    /// Column-sample size used beyond [`Self::EXACT_SUPPORT_LIMIT`].
    const SUPPORT_SAMPLE: usize = 4_096;

    /// Our model's binary Table-4 prediction, using the paper's recipe:
    /// per-user top-`k_i%` thresholds taken over the **full support** of
    /// `T̂` (all derived connections), then evaluated on `R`.
    pub fn prediction_ours(&self) -> Result<Csr> {
        let k = binarize::trust_generosity(&self.r, &self.t)?;
        let u = self.derived.num_users();
        let columns = if u > Self::EXACT_SUPPORT_LIMIT {
            Some(binarize::sample_columns(u, Self::SUPPORT_SAMPLE, 0xC0175))
        } else {
            None
        };
        let tau = binarize::full_support_thresholds(
            &self.derived.affiliation,
            &self.derived.expertise,
            &k,
            columns.as_deref(),
        )?;
        Ok(binarize::binarize_at_thresholds(
            &self.scores_ours()?,
            &tau,
        )?)
    }

    /// The baseline's binary Table-4 prediction: `B` only exists on `R`,
    /// so its top-`k_i%` is taken over the `R`-restricted candidate set.
    pub fn prediction_baseline(&self) -> Result<Csr> {
        Ok(binarize::binarize_like_paper(
            &self.scores_baseline(),
            &self.r,
            &self.t,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_builds_consistently() {
        let wb = Workbench::new(&SynthConfig::tiny(3), &DeriveConfig::default()).unwrap();
        let u = wb.out.store.num_users();
        assert_eq!(wb.r.shape(), (u, u));
        assert_eq!(wb.t.shape(), (u, u));
        assert_eq!(wb.derived.num_users(), u);
        let ours = wb.scores_ours().unwrap();
        assert_eq!(ours.nnz(), wb.r.nnz());
        let base = wb.scores_baseline();
        assert_eq!(base.nnz(), wb.r.nnz());
    }

    /// Table 4's scores on `R` are `pairwise` Eq. 5, bit for bit, so a
    /// cell whose score sits exactly on its row's full-support threshold
    /// is predicted — thresholds and scores come from one computation.
    #[test]
    fn scores_on_r_are_pairwise_and_keep_cells_at_the_threshold() {
        let wb = Workbench::new(&SynthConfig::tiny(20080407), &DeriveConfig::default()).unwrap();
        let (a, e) = (&wb.derived.affiliation, &wb.derived.expertise);
        let scores = wb.scores_ours().unwrap();
        assert_eq!(scores.nnz(), wb.r.nnz());
        for (i, j, v) in scores.iter() {
            let want = wot_core::trust::pairwise(a, e, i, j);
            assert_eq!(v.to_bits(), want.to_bits(), "({i},{j})");
        }

        let k = binarize::trust_generosity(&wb.r, &wb.t).unwrap();
        let tau = binarize::full_support_thresholds(a, e, &k, None).unwrap();
        let predicted = wb.prediction_ours().unwrap();
        let mut due = 0;
        for (i, j, _) in wb.r.iter() {
            let v = wot_core::trust::pairwise(a, e, i, j);
            if tau[i] > 0.0 && v >= tau[i] {
                due += 1;
                assert!(predicted.contains(i, j), "({i},{j}) at {v} ≥ τ {}", tau[i]);
            }
        }
        assert_eq!(predicted.nnz(), due);
    }
}
