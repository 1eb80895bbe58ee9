"""Ablation: the paper's Takeaway heuristics vs exhaustive search.

The paper chooses configurations by heuristic rather than search (§1).
This bench runs the exhaustive simulator-backed autotuner and reports
how close the heuristic configuration comes to the true optimum.
"""

from repro.config import fig14_model
from repro.perf import heuristic_gap


def test_heuristic_vs_exhaustive(show):
    gap, best, heuristic = heuristic_gap(fig14_model(), 32, 64)
    from repro.experiments.report import ExperimentResult

    r = ExperimentResult(
        experiment_id="ablation_autotune",
        title="Takeaway heuristic vs exhaustive search (5.9B, 32 GPUs, B=64)",
        columns=("config", "tflops_gpu"),
    )
    r.add("exhaustive best: " + best.parallel.describe(),
          round(best.tflops_per_gpu, 1))
    r.add("heuristic", round(heuristic.tflops_per_gpu, 1))
    r.notes = f"heuristic gap: {gap*100:.1f}% (the Takeaways are near-optimal)"
    show(r)
    assert gap < 0.25
