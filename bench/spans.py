"""In-memory spans around the public calls of each electra module.

The tracer replaces a function at the name its callers look up (a module
global or a class attribute) with a wrapper that records a span: name,
start, end and the index of the enclosing span.  ``restore`` puts every
original back.  A span's self time is its duration minus the durations of
its direct children; the per-layer metrics are built from self times and
call counts, so summed over all spans they add up to the traced wall time.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

LAYERS = ("cli", "engine", "models", "peaks", "conditions", "metrics", "franklin")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


class Tracer:
    """Records spans for every call of the functions it wraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        note: Callable[[tuple, dict, object], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        A name the owner does not define, or an abstract method, is left
        alone, so the benchmark keeps running when a later version of the
        package drops or moves a function; its metrics then read 0.
        ``note(args, kwargs, result)`` adds facts about the call to the span.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original) or getattr(original, "__isabstractmethod__", False):
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                span.meta = note(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# what to wrap


def _columns(args, kwargs, table) -> dict:
    return {"columns": table.j_max + 1}


def _election(args, kwargs, records) -> dict:
    return {"rounds": int(records.rounds.sum()), "trials": int(records.config.trials)}


def _estimate(args, kwargs, estimate) -> dict:
    return {"trials": int(estimate.extra.get("total_trials", estimate.trials))}


def _row_key(backend: str):
    def note(args, kwargs, result) -> dict:
        model = args[0]
        n = args[1] if len(args) > 1 else kwargs.get("n")
        return {"row": (model.name, getattr(model, "exact_cutoff", None), n, backend)}

    return note


def install(tracer: Tracer) -> None:
    """Wrap the public calls of each module at the names callers use."""
    import electra.cli as cli
    import electra.conditions as conditions
    import electra.engine as engine
    import electra.metrics as metrics
    import electra.models as models

    tracer.wrap(cli, "main", "cli.main")
    for attr, name, note in (
        ("compute_phase_table", "engine.compute_phase_table", _columns),
        ("run_condition_checks", "conditions.run_condition_checks", None),
        ("periodicity_samples", "metrics.periodicity_samples", None),
        ("periodicity_reconstruct", "metrics.periodicity_reconstruct", None),
        ("empirical_limit", "metrics.empirical_limit", None),
        ("estimate_c2", "franklin.estimate_c2", _estimate),
        ("run_election", "franklin.run_election", _election),
        ("conditional_second_round", "franklin.conditional_second_round", _estimate),
        ("exhaustive_second_round", "franklin.exhaustive_second_round", None),
        ("mean_survival_ratios", "franklin.mean_survival_ratios", None),
    ):
        tracer.wrap(cli, attr, name, note)
    tracer.wrap(engine.PhaseTable, "to_csv", "engine.to_csv")
    tracer.wrap(engine.PhaseTable, "means_to_csv", "engine.means_to_csv")
    tracer.wrap(models, "build_peak_table", "peaks.build_peak_table")
    tracer.wrap(models, "gaussian_row", "peaks.gaussian_row")
    for attr in sorted(vars(conditions)):
        if attr.startswith("check_"):
            tracer.wrap(conditions, attr, f"conditions.{attr}")
    tracer.wrap(metrics, "laplace_transform", "metrics.laplace_transform")
    for cls in list(vars(models).values()):
        if isinstance(cls, type) and issubclass(cls, models.SurvivorModel):
            for backend in ("pmf_exact", "pmf_float"):
                tracer.wrap(cls, backend, f"models.{backend}", _row_key(backend))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one pass, by metric name."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + t
        self_by_layer[span.layer] = self_by_layer.get(span.layer, 0.0) + t

    def metas(prefix: str, key: str) -> list:
        return [s.meta[key] for s in spans if s.name.startswith(prefix) and key in s.meta]

    rows = metas("models.pmf_", "row")
    franklin = [s for s in spans if s.layer == "franklin" and "trials" in s.meta]
    franklin_s = sum(s.end - s.start for s in franklin)
    out: dict[str, float] = {f"{layer}.self_s": t for layer, t in self_by_layer.items()}
    out.update({
        "engine.compute_phase_table.calls": calls.get("engine.compute_phase_table", 0),
        "engine.compute_phase_table.self_s": self_by_name.get("engine.compute_phase_table", 0.0),
        "engine.to_csv_s": self_by_name.get("engine.to_csv", 0.0)
        + self_by_name.get("engine.means_to_csv", 0.0),
        "engine.columns": sum(metas("engine.compute_phase_table", "columns")),
        "models.row_repeat_ratio": len(rows) / len(set(rows)) if rows else 0.0,
        "franklin.estimate_c2_s": self_by_name.get("franklin.estimate_c2", 0.0),
        "franklin.run_election_s": self_by_name.get("franklin.run_election", 0.0),
        "franklin.conditional_second_round_s":
            self_by_name.get("franklin.conditional_second_round", 0.0),
        "franklin.rounds_played": sum(metas("franklin.run_election", "rounds")),
        "franklin.trials_per_s":
            sum(s.meta["trials"] for s in franklin) / franklin_s if franklin_s else 0.0,
        "trace.self_sum_s": sum(own),
    })
    for name in ("models.pmf_exact", "models.pmf_float", "peaks.build_peak_table",
                 "peaks.gaussian_row", "metrics.laplace_transform"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_by_name.get(name, 0.0)
    for name in ("conditions.check_monotone", "conditions.check_mean_increment",
                 "conditions.check_concentration", "conditions.check_moment",
                 "metrics.periodicity_samples", "metrics.empirical_limit"):
        out[f"{name}.self_s"] = self_by_name.get(name, 0.0)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes."""
    return {key: median(p[key] for p in passes) for key in passes[0]}
