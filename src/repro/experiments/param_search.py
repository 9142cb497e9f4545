"""§V-B: locating optimal glitch parameters.

Paper anchors: "locating the optimal parameters when attacking a while(a)
loop in less than 59 minutes ... 7,031 successful glitches out of 36,869
in its search. When applied to a while(a != 0xD3B9AEC6) loop, the algorithm
converged in 16 minutes with 901 successful glitches." And §II-B: a perfect
trigger tunes an unprotected system to 100% (10/10) "in less than 16
minutes, in the best case".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.render import render_table
from repro.hw.faults import FaultModel
from repro.hw.search import ParameterSearch, SearchResult

PAPER_ANCHORS = {
    "a": {"minutes": 59, "attempts": 36869, "successes": 7031},
    "a_ne_const": {"minutes": 16, "attempts": None, "successes": 901},
}


@dataclass
class SearchExperiment:
    results: dict[str, SearchResult] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for guard, result in self.results.items():
            anchor = PAPER_ANCHORS.get(guard, {})
            rows.append([
                guard,
                "yes" if result.found else "no",
                str(result.params) if result.params else "-",
                result.attempts,
                result.successes,
                f"{result.modeled_minutes:.1f}",
                f"{anchor.get('minutes', '-')} min" if anchor else "-",
            ])
        return render_table(
            "§V-B: optimal-parameter search (10/10 repeatability)",
            ["Guard", "Found", "Params", "Attempts", "Successes", "Modeled min", "Paper"],
            rows,
        )


def run_search(
    guards: tuple[str, ...] = ("a", "a_ne_const", "not_a"),
    coarse_stride: int = 4,
    fault_model: FaultModel | str | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    obs=None,
) -> SearchExperiment:
    from repro.obs import coerce_observer

    obs = coerce_observer(obs)
    experiment = SearchExperiment()
    with obs.trace("param_search", coarse_stride=coarse_stride):
        for guard in guards:
            search = ParameterSearch(
                guard, coarse_stride=coarse_stride, fault_model=fault_model,
                checkpoint_dir=checkpoint_dir, resume=resume, obs=obs,
            )
            try:
                experiment.results[guard] = search.run()
            finally:
                search.close()
    return experiment


__all__ = ["SearchExperiment", "run_search", "PAPER_ANCHORS"]
