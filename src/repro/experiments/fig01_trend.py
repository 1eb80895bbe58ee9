"""Figure 1: trend of state-of-the-art NLP model sizes over time.

A static dataset (model, year, parameters) showing the exponential
growth the paper's introduction motivates; the experiment fits the
exponent and reports the doubling time.
"""

from __future__ import annotations

import math

from .report import ExperimentResult

#: (model, year, parameters)
MODEL_SIZES = (
    ("ELMo", 2018.2, 94e6),
    ("GPT-1", 2018.5, 110e6),
    ("BERT-Large", 2018.8, 340e6),
    ("GPT-2", 2019.1, 1.5e9),
    ("Megatron-LM", 2019.7, 8.3e9),
    ("T5-11B", 2019.9, 11e9),
    ("Turing-NLG", 2020.1, 17e9),
    ("GPT-3", 2020.4, 175e9),
    ("Megatron-Turing (this paper's 1T run)", 2021.3, 1.008e12),
)


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig01",
        title="Growth of NLP model sizes (exponential trend)",
        columns=("model", "year", "parameters", "log10_params"),
    )
    for name, year, params in MODEL_SIZES:
        result.add(name, year, params, round(math.log10(params), 2))
    # Least-squares slope of log10(P) vs year.
    ys = [y for _, y, _ in MODEL_SIZES]
    ls = [math.log10(p) for _, _, p in MODEL_SIZES]
    n = len(ys)
    ybar, lbar = sum(ys) / n, sum(ls) / n
    slope = sum((y - ybar) * (l - lbar) for y, l in zip(ys, ls)) / sum(
        (y - ybar) ** 2 for y in ys
    )
    doubling_months = 12 * math.log10(2) / slope
    result.notes = (
        f"Fitted growth: 10^{slope:.2f} per year "
        f"(doubling every {doubling_months:.1f} months) -- exponential, "
        "as Figure 1 shows."
    )
    return result
