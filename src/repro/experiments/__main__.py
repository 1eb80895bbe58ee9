"""Print every reproduced table and figure: python -m repro.experiments.

Pass --plot to additionally render ASCII charts of the figure shapes.
"""

import sys

from . import REGISTRY
from .plots import plot_experiment


def main(argv: list[str]) -> int:
    plot = "--plot" in argv
    wanted = [a for a in argv if a != "--plot"] or list(REGISTRY)
    for key in wanted:
        if key not in REGISTRY:
            print(f"unknown experiment {key!r}; choose from {sorted(REGISTRY)}")
            return 1
        result = REGISTRY[key]()
        print(result.to_text())
        print()
        if plot:
            chart = plot_experiment(result)
            if chart:
                print(chart)
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
