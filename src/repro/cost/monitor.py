"""Runtime monitoring and dynamic cost estimation (paper section 5.2).

When statically incomparable, semantically-equivalent implementations are
all generated, and a monitor inserted into the output program samples the
input at run time (first-k sampling, k = 5000 in the paper), estimates
the unknown cost-model terms — conditional probabilities pᵢ and
distinct-key counts — plugs them back into Eqns 2-4, and executes the
implementation with the lowest estimated cost.

The sampling pass has two forms.  A generated program's implementations
each carry a **compiled sampler** (:class:`Implementation.sampler`,
rendered by :func:`repro.codegen.kernels.render_sampler`) that reads the
raw record head; that is what every job runs.  :func:`estimate_from_sample`
interprets the summary over pre-bound record environments, one tree
walk per emit per record: the reference the sampler is
tested equal to, what answers — with a ``REP309`` — when a sampler cannot
be rendered or trips on a record, and what hand-built implementations
without a sampler use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..ir.eval import eval_expr
from ..ir.nodes import (
    JoinStage,
    MapStage,
    Pipeline,
    ReduceStage,
    Summary,
)
from .model import CostExpr, CostModel


@dataclass
class Implementation:
    """One generated semantically-equivalent implementation.

    ``runner`` executes the real job; ``summary`` drives cost estimation.
    ``sampler`` is the implementation's compiled sampling pass,
    ``(record_head, globals_env) -> SampleEstimates`` over the *raw*
    first-k records; an implementation without one is estimated by
    interpreting ``summary`` over pre-bound record environments.
    """

    name: str
    summary: Summary
    cost: CostExpr
    runner: Callable[..., Any]
    sampler: Optional[Callable[[list, dict[str, Any]], "SampleEstimates"]] = None


@dataclass
class SampleEstimates:
    """Unknown cost-model terms estimated from a first-k sample."""

    probabilities: dict[str, float] = field(default_factory=dict)
    key_ratios: dict[str, float] = field(default_factory=dict)
    sample_size: int = 0
    #: The ``REP309`` of a sampling pass the reference estimator had to
    #: answer in the compiled sampler's place (empty otherwise); whoever
    #: reports on the job moves it to ``PlanReport.diagnostics``.
    diagnostics: list = field(default_factory=list, compare=False)

    def as_dict(self) -> dict[str, float]:
        return {**self.probabilities, **self.key_ratios}


def estimate_from_sample(
    summary: Summary,
    sample: list[dict[str, Any]],
    globals_env: dict[str, Any],
    prefix: str = "s",
    right_samples: Optional[dict[str, list[dict[str, Any]]]] = None,
) -> SampleEstimates:
    """Estimate pᵢ and distinct-key ratios by evaluating λm on a sample
    of pre-bound record environments — the reference estimator.

    Mirrors the paper's monitor: count the sample elements for which each
    emit's conditional evaluates to true, and the number of unique emitted
    keys.

    ``right_samples`` maps a join level's right-relation name to a
    bounded sample of *pre-bound record environments* of that relation
    (the caller holds the views; the estimator only evaluates emits).
    With them the estimator carries the sample *through* join stages —
    probing the sampled right side to form joined pairs — so post-join
    map/reduce stages are priced from data instead of keeping their
    upper-bound defaults.
    """
    estimates = SampleEstimates(sample_size=len(sample))
    if not sample:
        return estimates
    _estimate_pipeline(
        summary.pipeline, sample, globals_env, prefix, estimates,
        right_samples=right_samples,
    )
    return estimates


def _estimate_pipeline(
    pipeline: Pipeline,
    sample: list[dict[str, Any]],
    globals_env: dict[str, Any],
    prefix: str,
    estimates: SampleEstimates,
    right_samples: Optional[dict[str, list[dict[str, Any]]]] = None,
) -> None:
    current: list[dict[str, Any]] = sample
    pairs: list[tuple[Any, Any]] = []
    is_pairs = False
    for index, stage in enumerate(pipeline.stages):
        if isinstance(stage, MapStage):
            new_pairs: list[tuple[Any, Any]] = []
            for emit_index, emit in enumerate(stage.lam.emits):
                fired = 0
                total = 0
                if is_pairs:
                    k_name = stage.lam.params[0]
                    v_name = stage.lam.params[1] if len(stage.lam.params) > 1 else "v"
                    envs = [
                        {**globals_env, k_name: k, v_name: v} for k, v in pairs
                    ]
                else:
                    envs = [{**globals_env, **element} for element in current]
                for env in envs:
                    total += 1
                    if emit.cond is None or eval_expr(emit.cond, env):
                        fired += 1
                        new_pairs.append(
                            (eval_expr(emit.key, env), eval_expr(emit.value, env))
                        )
                if emit.cond is not None and total:
                    estimates.probabilities[f"p_{prefix}{index}_{emit_index}"] = (
                        fired / total
                    )
            pairs = new_pairs
            is_pairs = True
        elif isinstance(stage, ReduceStage):
            if pairs:
                distinct = len({k for k, _ in pairs})
                estimates.key_ratios[f"k_{prefix}{index}"] = distinct / len(pairs)
            else:
                estimates.key_ratios[f"k_{prefix}{index}"] = 0.0
            # After reduce, one pair per key (values unknown — keep firsts).
            seen: dict[Any, Any] = {}
            for k, v in pairs:
                seen.setdefault(k, v)
            pairs = list(seen.items())
        elif isinstance(stage, JoinStage):
            right_envs = (right_samples or {}).get(stage.right.source)
            if not right_envs:
                # The sample covers the left relation only, so the joined
                # (v₁, v₂) values cannot be formed here: record the join
                # selectivity's conservative default and stop — downstream
                # stages' unknowns keep their upper-bound default of 1.
                estimates.probabilities[f"p_{prefix}{index}_j"] = 1.0
                return
            # With a right-side sample the join can be carried through:
            # evaluate the right map's keyed emits over the sample, probe
            # the left pairs against the resulting index, and keep
            # pricing the post-join stages on the joined pairs.
            right_stage = stage.right.stages[0]
            assert isinstance(right_stage, MapStage)
            index_map: dict[Any, list[Any]] = {}
            right_pairs = 0
            for right_env in right_envs:
                env = {**globals_env, **right_env}
                for emit in right_stage.lam.emits:
                    if emit.cond is None or eval_expr(emit.cond, env):
                        right_pairs += 1
                        index_map.setdefault(
                            eval_expr(emit.key, env), []
                        ).append(eval_expr(emit.value, env))
            joined = [
                (k, (lv, rv))
                for k, lv in pairs
                for rv in index_map.get(k, ())
            ]
            possible = len(pairs) * max(1, right_pairs)
            estimates.probabilities[f"p_{prefix}{index}_j"] = (
                len(joined) / possible if possible else 1.0
            )
            pairs = joined
            is_pairs = True


@dataclass
class RuntimeMonitor:
    """Selects the cheapest implementation for the observed input data."""

    implementations: list[Implementation]
    sample_size: int = 5000
    cost_model: CostModel = field(default_factory=CostModel)
    last_choice: Optional[str] = None
    last_costs: dict[str, float] = field(default_factory=dict)

    def choose(
        self,
        sample: list,
        globals_env: Optional[dict[str, Any]] = None,
        n2_ratio: float = 1.0,
        estimates_out: Optional[dict[str, SampleEstimates]] = None,
    ) -> Implementation:
        """Pick the implementation with the lowest estimated cost.

        ``sample`` is the head of the input as the implementations read
        it: raw records for implementations that carry a compiled
        ``sampler``, pre-bound record environments for those that do
        not.  ``estimates_out``, when given, receives each implementation's
        :class:`SampleEstimates` under its name, so a caller that plans
        the chosen one next (the execution planner prices the same
        sample against the same summary) need not sample again.
        """
        globals_env = globals_env or {}
        sample = sample[: self.sample_size]
        best: Optional[Implementation] = None
        best_cost = float("inf")
        self.last_costs = {}
        for impl in self.implementations:
            if impl.sampler is not None:
                estimates = impl.sampler(sample, globals_env)
            else:
                estimates = estimate_from_sample(impl.summary, sample, globals_env)
            if estimates_out is not None:
                estimates_out[impl.name] = estimates
            cost_value = impl.cost.evaluate(estimates.as_dict(), n2_ratio=n2_ratio)
            self.last_costs[impl.name] = cost_value
            if cost_value < best_cost:
                best_cost = cost_value
                best = impl
        assert best is not None, "monitor requires at least one implementation"
        self.last_choice = best.name
        return best

    def run(
        self,
        data: list,
        sample_elements: list,
        globals_env: Optional[dict[str, Any]] = None,
        **runner_kwargs,
    ) -> Any:
        """Sample, choose, and execute — the generated program's behaviour."""
        chosen = self.choose(sample_elements, globals_env)
        return chosen.runner(data, **runner_kwargs)
