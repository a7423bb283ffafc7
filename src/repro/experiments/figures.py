"""Builders for the paper's figures (Figure 1b and Figure 2).

Figures are produced as structured data plus text reports (no plotting
dependency is available offline); the benchmark suite prints the same series
the paper plots.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .reporting import format_table, percent
from .runner import ExperimentConfig, run_grid

#: The four representation-learning settings compared in Figure 1b.
FIGURE1B_METHODS = ("infonce", "infonce+supcon", "infonce+supcon+ce", "openima")


def build_figure1b(experiment: Optional[ExperimentConfig] = None,
                   dataset_name: str = "coauthor-cs",
                   methods: Sequence[str] = FIGURE1B_METHODS) -> dict:
    """Figure 1b: imbalance rate, separation rate, and seen/novel accuracy.

    The paper's motivating table on Coauthor CS: adding supervised losses on
    top of InfoNCE increases the imbalance rate and the separation rate,
    hurting (then recovering) novel-class accuracy; OpenIMA keeps the
    imbalance low while pushing separation and both accuracies up.
    """
    experiment = experiment if experiment is not None else ExperimentConfig()
    rows = []
    results: Dict[str, dict] = {}
    runs = run_grid([(method, dataset_name, {}) for method in methods],
                    experiment)
    for method, aggregated in zip(methods, runs):
        results[method] = {
            "imbalance_rate": aggregated.imbalance_rate,
            "separation_rate": aggregated.separation_rate,
            "seen": aggregated.accuracy.seen,
            "novel": aggregated.accuracy.novel,
            "all": aggregated.accuracy.overall,
        }
        rows.append([
            method,
            f"{aggregated.imbalance_rate:.3f}",
            f"{aggregated.separation_rate:.3f}",
            percent(aggregated.accuracy.seen),
            percent(aggregated.accuracy.novel),
        ])
    report = format_table(
        ["Method", "Imbalance", "Separation", "Seen Acc", "Novel Acc"],
        rows,
        title=f"Figure 1b: variance imbalance effects on {dataset_name}",
    )
    return {"results": results, "report": report}


def build_figure2(experiment: Optional[ExperimentConfig] = None,
                  datasets: Sequence[str] = ("coauthor-cs", "coauthor-physics"),
                  etas: Sequence[float] = (1.0, 10.0, 20.0),
                  rhos: Sequence[float] = (25.0, 50.0, 75.0, 100.0)) -> dict:
    """Figure 2: effect of the CE scaling factor eta and the selection rate rho.

    Returns seen/novel accuracy series for each dataset as eta and rho vary.
    """
    experiment = experiment if experiment is not None else ExperimentConfig()
    settings = [("eta", eta) for eta in etas] + [("rho", rho) for rho in rhos]
    grid = iter(run_grid(
        [("openima", dataset_name, {"openima_overrides": {name: value}})
         for dataset_name in datasets for name, value in settings],
        experiment,
    ))
    eta_series: Dict[str, list] = {}
    rho_series: Dict[str, list] = {}
    for dataset_name in datasets:
        eta_series[dataset_name] = []
        rho_series[dataset_name] = []
        for name, value in settings:
            aggregated = next(grid)
            series = eta_series if name == "eta" else rho_series
            series[dataset_name].append({
                name: value,
                "seen": aggregated.accuracy.seen,
                "novel": aggregated.accuracy.novel,
            })

    rows = []
    for dataset_name in datasets:
        for point in eta_series[dataset_name]:
            rows.append([dataset_name, f"eta={point['eta']}", percent(point["seen"]),
                         percent(point["novel"])])
        for point in rho_series[dataset_name]:
            rows.append([dataset_name, f"rho={point['rho']}", percent(point["seen"]),
                         percent(point["novel"])])
    report = format_table(
        ["Dataset", "Setting", "Seen Acc", "Novel Acc"],
        rows,
        title="Figure 2: effect of eta and rho on OpenIMA",
    )
    return {"eta_series": eta_series, "rho_series": rho_series, "report": report}
