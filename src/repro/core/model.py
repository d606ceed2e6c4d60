"""The BlackForest model: the paper's five-stage pipeline (Section 4.2).

1. **data collection** — done by :mod:`repro.profiling` (the campaign
   passed to :meth:`BlackForest.fit`);
2. **random forest construction and validation** — 80:20 random split,
   forest fit on the training partition, validated via OOB error /
   explained variance and the held-out test set;
3. **variable importance analysis** — permutation importance ranking
   plus partial dependence directions for the leaders;
4. **refinement with PCA** (optional, recommended) — principal
   components with varimax-rotated factor loadings over the counter
   matrix, used to interpret correlated variable groups;
5. **results interpretation** — bottleneck detection against the
   performance-pattern library and the reduced-model retention check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro._compat import warn_once
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import explained_variance, mse
from repro.ml.pca import PCA
from repro.ml.preprocessing import (
    drop_constant_columns,
    sanitize_matrix,
    train_test_split,
)
from repro.obs import span
from repro.obs.log import emit as emit_event
from repro.profiling.campaign import CampaignResult

from .bottleneck import BottleneckFinding, detect_bottlenecks
from .importance import ImportanceRanking, rank_importance, reduced_model_check

__all__ = ["BlackForest", "BlackForestFit", "induced_counter_ranking"]


def induced_counter_ranking(component_ranking, pca: PCA) -> ImportanceRanking:
    """Map a ranking over principal components back onto counters.

    Each counter's induced score is the importance of every component
    weighted by the counter's absolute factor loading on it — the
    "easy interpretation of random forest outcome" the paper's Section 7
    expects from the PCA-first pipeline.
    """
    loadings = pca.loadings
    scores = np.zeros(len(loadings.names))
    for comp_idx, comp in enumerate(loadings.components):
        if comp not in component_ranking.names:
            continue
        imp = max(component_ranking.score_of(comp), 0.0)
        scores += imp * np.abs(loadings.values[:, comp_idx])
    order = np.argsort(scores)[::-1]
    return ImportanceRanking(
        names=[loadings.names[j] for j in order],
        scores=scores[order],
    )


@dataclass
class BlackForestFit:
    """Everything produced by one run of the pipeline."""

    kernel: str
    arch: str
    forest: RandomForestRegressor
    feature_names: list[str]
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    oob_mse: float
    oob_explained_variance: float
    test_mse: float
    test_explained_variance: float
    importance: ImportanceRanking
    bottlenecks: list[BottleneckFinding]
    pca: PCA | None = None
    reduced_forest: RandomForestRegressor | None = None
    reduced_feature_names: list[str] = field(default_factory=list)
    reduced_retains_power: bool | None = None
    reduced_test_explained_variance: float | None = None
    #: Matrix options the fit was made with — what :meth:`assess` needs
    #: to build comparable predictor vectors from a fresh campaign.
    response: str = "time"
    counters_used: list[str] | None = None
    include_characteristics: bool = True
    include_machine: bool = False
    pca_first: bool = False
    #: How the training matrix was degraded-and-repaired (dropped rows/
    #: columns, imputed cells — ``MatrixSanitation.to_dict()``), or
    #: ``None`` for a clean campaign. A fit built on partial data
    #: carries that fact with it.
    degradation: dict | None = None
    #: Per-repeat permutation-importance vectors (aligned with
    #: ``feature_names``) when the pipeline ran ``importance_repeats > 1``
    #: refits, else ``None``. The report layer turns these into a
    #: rank-stability diagnostic (Spearman correlation across repeats).
    importance_samples: list[np.ndarray] | None = None

    def report(self, campaign: CampaignResult | None = None, *,
               trace=None, events=None, top_k: int = 10):
        """Build a structured bottleneck :class:`~repro.obs.report.Report`.

        Renders to text/Markdown/HTML via the returned object; pass the
        training ``campaign`` for per-kernel counter tables and span
        ``trace`` / ``events`` for the hot-path and timeline sections.
        """
        from repro.obs.report import build_report

        return build_report(
            self, campaign, trace=trace, events=events, top_k=top_k
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict execution times from full predictor vectors."""
        return self.forest.predict(X)

    def predict_many(self, queries) -> list[np.ndarray]:
        """Batched :meth:`predict`: one stacked forest pass for many
        queued query matrices, bit-identical to the per-query loop
        (see :func:`repro.core.api.predict_many`)."""
        return self.forest.predict_many(queries)

    def assess(self, campaign: CampaignResult):
        """Score this fit against a measured campaign (protocol method).

        Builds the campaign's predictor matrix with the same options the
        fit used (column-aligned by name; PCA-first fits project counter
        columns through the fitted rotation) and compares predictions to
        the measured response. Returns a
        :class:`~repro.core.prediction.PredictionReport`.
        """
        from .prediction import PredictionReport

        with span("blackforest.assess", kernel=campaign.kernel):
            X, y, names = campaign.matrix(
                counters=self.counters_used,
                include_characteristics=self.include_characteristics,
                include_machine=self.include_machine,
                response=self.response,
            )
            if self.pca_first:
                if self.pca is None:
                    raise ValueError("pca_first fit without a fitted PCA")
                counter_order = list(self.pca.loadings.names)
                absent = [n for n in counter_order if n not in names]
                if absent:
                    raise ValueError(
                        f"campaign lacks PCA input counters {absent}"
                    )
                counter_cols = [names.index(n) for n in counter_order]
                in_pca = set(counter_cols)
                other_cols = [j for j in range(len(names)) if j not in in_pca]
                scores = self.pca.transform(X[:, counter_cols])
                X = np.column_stack([scores, X[:, other_cols]])
                names = [
                    f"PC{i + 1}" for i in range(self.pca.n_components_)
                ] + [names[j] for j in other_cols]
            missing = [n for n in self.feature_names if n not in names]
            if missing:
                raise ValueError(
                    f"campaign lacks fitted predictors {missing}"
                )
            X = X[:, [names.index(n) for n in self.feature_names]]
            problems = np.array(
                [r.characteristics.get("size", np.nan) for r in campaign.records]
            )
            return PredictionReport(
                problems=problems,
                predicted_s=self.forest.predict(X),
                measured_s=y,
            )

    def predict_from_dict(self, rows: list[dict[str, float]]) -> np.ndarray:
        """Predict from name->value mappings (missing keys are an error)."""
        X = np.array([[row[name] for name in self.feature_names] for row in rows])
        return self.forest.predict(X)

    @property
    def top_predictors(self) -> list[str]:
        return self.importance.names[:8]

    @property
    def primary_bottleneck(self) -> BottleneckFinding | None:
        return self.bottlenecks[0] if self.bottlenecks else None


class BlackForest:
    """Configurable pipeline front-end.

    Parameters
    ----------
    n_trees:
        Forest size (the R default of 500 is accurate but slow; 300
        keeps campaign-scale analyses interactive with no measurable
        ranking change on <=129-run datasets).
    test_fraction:
        Held-out fraction of the campaign (paper: 20%).
    top_k:
        Predictors retained for the reduced model ("usually, between 6
        and 8", Section 6.1.1).
    use_pca:
        Run the stage-4 PCA refinement (rotated factor loadings).
    pca_variance:
        Variance fraction the retained components must explain; the
        paper's use cases retain 4 components covering >96-97%.
    importance_repeats:
        Forests fitted (with fresh bootstrap/permutation randomness) to
        *average* the permutation importances. Importance rankings among
        highly correlated counters are unstable for a single forest
        (Strobl et al., the paper's [19]); averaging a few fits
        stabilizes the ranking at proportional cost. 1 = single fit.
    pca_first:
        The paper's Section 7 plan: "first applying PCA onto the data to
        both remove correlated variables and reduce dimensionality ...
        leading to easy interpretation of random forest outcome". The
        counter columns are replaced by their varimax-rotated principal
        component *scores* before the forest is fitted; importance is
        then over components, and the bottleneck analysis works on a
        counter ranking induced through the factor loadings.
    n_jobs:
        Worker processes for the forest fits; 1 (default) stays
        in-process, -1 uses every core. The fitted model is bit-for-bit
        independent of ``n_jobs`` (per-tree spawned RNG streams).
    rng:
        Seed for the split, the forest and the permutations.
    """

    def __init__(
        self,
        n_trees: int = 300,
        test_fraction: float = 0.2,
        top_k: int = 6,
        use_pca: bool = True,
        pca_variance: float = 0.96,
        min_samples_leaf: int = 5,
        importance_repeats: int = 1,
        pca_first: bool = False,
        n_jobs: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if importance_repeats < 1:
            raise ValueError("importance_repeats must be >= 1")
        self.n_trees = n_trees
        self.test_fraction = test_fraction
        self.top_k = top_k
        self.use_pca = use_pca
        self.pca_variance = pca_variance
        self.min_samples_leaf = min_samples_leaf
        self.importance_repeats = importance_repeats
        self.pca_first = pca_first
        self.n_jobs = n_jobs
        self._rng = np.random.default_rng(rng)

    def fit(
        self,
        campaign: CampaignResult,
        *args,
        include_characteristics: bool = True,
        include_machine: bool = False,
        counters: list[str] | None = None,
        response: str = "time",
    ) -> BlackForestFit:
        """Run stages 2-5 on a collected campaign.

        All configuration is keyword-only (the unified predictor
        protocol, see docs/api.md). ``response`` selects the modeled
        quantity — "time" (default) or "power", the paper's Section 7
        extension ("one could use other metrics of interest, such as
        power, as response variable").
        """
        if args:
            # Legacy positional order: (include_characteristics,
            # include_machine, counters, response).
            warn_once(
                "BlackForest.fit:positional",
                "passing BlackForest.fit configuration positionally is "
                "deprecated; use keyword arguments "
                "(include_characteristics=..., include_machine=..., "
                "counters=..., response=...)",
            )
            legacy = ("include_characteristics", "include_machine",
                      "counters", "response")
            if len(args) > len(legacy):
                raise TypeError(
                    f"fit() takes at most {len(legacy)} configuration "
                    f"arguments ({len(args)} given)"
                )
            defaults = {
                "include_characteristics": include_characteristics,
                "include_machine": include_machine,
                "counters": counters,
                "response": response,
            }
            defaults.update(dict(zip(legacy, args)))
            include_characteristics = defaults["include_characteristics"]
            include_machine = defaults["include_machine"]
            counters = defaults["counters"]
            response = defaults["response"]
        emit_event(
            "fit.start",
            stage="blackforest",
            kernel=campaign.kernel,
            arch=campaign.arch,
            response=response,
            n_records=len(campaign.records),
        )
        with span(
            "blackforest.fit",
            kernel=campaign.kernel,
            arch=campaign.arch,
            response=response,
        ):
            fit = self._fit_impl(
                campaign,
                include_characteristics=include_characteristics,
                include_machine=include_machine,
                counters=counters,
                response=response,
            )
        emit_event(
            "fit.end",
            stage="blackforest",
            kernel=campaign.kernel,
            arch=campaign.arch,
            oob_explained_variance=fit.oob_explained_variance,
            test_explained_variance=fit.test_explained_variance,
            degraded=fit.degradation is not None,
        )
        self.last_fit_ = fit
        return fit

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict with the most recent fit (protocol convenience)."""
        return self._require_fit().predict(X)

    def assess(self, campaign: CampaignResult):
        """Score the most recent fit against a measured campaign."""
        return self._require_fit().assess(campaign)

    def _require_fit(self) -> BlackForestFit:
        fit = getattr(self, "last_fit_", None)
        if fit is None:
            raise RuntimeError("call fit() before predict()/assess()")
        return fit

    def _fit_impl(
        self,
        campaign: CampaignResult,
        include_characteristics: bool,
        include_machine: bool,
        counters: list[str] | None,
        response: str,
    ) -> BlackForestFit:
        X, y, names = campaign.matrix(
            # The robust default keeps a counter column alive when only
            # some records lost it (the loss becomes NaN cells below).
            counters=counters if counters is not None
            else campaign.robust_predictor_names,
            include_characteristics=include_characteristics,
            include_machine=include_machine,
            response=response,
            missing="nan",
        )
        # Degraded runs (lost nvprof passes, injected NaN counters) are
        # repaired explicitly — dropped or imputed, never silently fitted
        # through — and the repair is recorded on the fit artifact.
        X, y, names, sanitation = sanitize_matrix(X, y, names)
        if sanitation.degraded:
            warnings.warn(
                f"fitting on a degraded campaign: {sanitation.summary()}",
                RuntimeWarning,
                stacklevel=3,
            )
        # Constant columns (e.g. machine metrics on a single-arch campaign,
        # counters that never fire) carry no signal and bias nothing.
        X, kept, names = drop_constant_columns(X, names)
        if X.shape[1] == 0:
            raise ValueError("no varying predictors in campaign")

        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_fraction=self.test_fraction, rng=self._rng
        )

        pca = None
        induced_from: PCA | None = None
        counter_names_used: list[str] = []
        if self.pca_first:
            # Replace the counter columns with rotated component scores
            # (problem/machine characteristics stay as-is).
            from repro.gpusim.counters import CATALOGUE

            counter_cols = [
                j for j, n in enumerate(names) if n in CATALOGUE
            ]
            other_cols = [j for j in range(len(names)) if j not in counter_cols]
            if len(counter_cols) < 2:
                raise ValueError("pca_first needs at least two counters")
            counter_names_used = [names[j] for j in counter_cols]
            pca = PCA(n_components=self.pca_variance, rotate=True)
            pca.fit(X_train[:, counter_cols], names=counter_names_used)
            comp_names = [f"PC{i + 1}" for i in range(pca.n_components_)]

            def to_scores(M):
                scores = pca.transform(M[:, counter_cols])
                return np.column_stack([scores, M[:, other_cols]])

            X_train = to_scores(X_train)
            X_test = to_scores(X_test)
            names = comp_names + [names[j] for j in other_cols]
            induced_from = pca

        forest = RandomForestRegressor(
            n_trees=self.n_trees,
            min_samples_leaf=self.min_samples_leaf,
            importance=True,
            n_jobs=self.n_jobs,
            rng=self._rng,
        ).fit(X_train, y_train, feature_names=names)

        importance_samples: list[np.ndarray] | None = None
        if self.importance_repeats > 1:
            with span(
                "blackforest.importance_repeats",
                repeats=self.importance_repeats,
            ):
                importance_samples = [forest.importance_.copy()]
                averaged = forest.importance_.copy()
                for _ in range(self.importance_repeats - 1):
                    extra = RandomForestRegressor(
                        n_trees=self.n_trees,
                        min_samples_leaf=self.min_samples_leaf,
                        importance=True,
                        n_jobs=self.n_jobs,
                        rng=self._rng,
                    ).fit(X_train, y_train, feature_names=names)
                    importance_samples.append(extra.importance_.copy())
                    averaged += extra.importance_
                forest.importance_ = averaged / self.importance_repeats

        with span("blackforest.importance"):
            ranking = rank_importance(
                forest, X_train, top_k_dependence=max(8, self.top_k)
            )
        if induced_from is not None:
            induced = induced_counter_ranking(ranking, induced_from)
            bottlenecks = detect_bottlenecks(induced, top_k=max(8, self.top_k))
        else:
            bottlenecks = detect_bottlenecks(ranking, top_k=max(8, self.top_k))

        if pca is None and self.use_pca:
            with span("blackforest.pca"):
                pca = PCA(n_components=self.pca_variance, rotate=True)
                pca.fit(X_train, names=names)

        with span("blackforest.reduced_check", k=min(self.top_k, len(names))):
            reduced, retains, full_ev, reduced_ev = reduced_model_check(
                forest, ranking, X_train, y_train, X_test, y_test,
                k=min(self.top_k, len(names)), rng=self._rng,
            )

        test_pred = forest.predict(X_test)
        return BlackForestFit(
            kernel=campaign.kernel,
            arch=campaign.arch,
            forest=forest,
            feature_names=names,
            X_train=X_train,
            y_train=y_train,
            X_test=X_test,
            y_test=y_test,
            oob_mse=forest.oob_mse_,
            oob_explained_variance=forest.oob_explained_variance_,
            test_mse=mse(y_test, test_pred),
            test_explained_variance=explained_variance(y_test, test_pred),
            importance=ranking,
            bottlenecks=bottlenecks,
            pca=pca,
            reduced_forest=reduced,
            reduced_feature_names=ranking.top(min(self.top_k, len(names))),
            reduced_retains_power=retains,
            reduced_test_explained_variance=reduced_ev,
            response=response,
            counters_used=list(counters) if counters is not None else None,
            include_characteristics=include_characteristics,
            include_machine=include_machine,
            pca_first=self.pca_first,
            degradation=sanitation.to_dict() if sanitation.degraded else None,
            importance_samples=importance_samples,
        )
