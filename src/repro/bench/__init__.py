"""Benchmark harness regenerating every figure of the paper's evaluation.

The paper's evaluation (Section III) consists of four result figures, all on
the synthetic multi-floor mall:

* **Figure 4** — search time vs. checkpoint-set size ``|T|`` (at t = 12:00
  and t = 8:00);
* **Figure 5** — search time vs. source-to-target distance δs2t;
* **Figure 6** — search time vs. query time t over the day;
* **Figure 7** — memory cost vs. query time t over the day;

plus the two setup tables (Table I: the example ATIs; Table II: the parameter
grid).  :mod:`repro.bench.experiments` defines one experiment per figure;
:mod:`repro.bench.harness` runs query sets with repetition and aggregates
time/memory; :mod:`repro.bench.reporting` prints the series the paper plots.
``python -m repro.bench <experiment>`` runs any of them from the command
line.
"""

from repro.bench.experiments import (
    EXPERIMENTS,
    ExperimentScale,
    default_grid,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_fig7,
    experiment_ablation_checks,
    experiment_ablation_partition_once,
)
from repro.bench.harness import (
    ExperimentResult,
    QuerySetMeasurement,
    run_query_set,
)
from repro.bench.memory import deep_sizeof, measure_peak_memory
from repro.bench.reporting import format_experiment, format_table

__all__ = [
    "EXPERIMENTS",
    "ExperimentScale",
    "default_grid",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_ablation_checks",
    "experiment_ablation_partition_once",
    "ExperimentResult",
    "QuerySetMeasurement",
    "run_query_set",
    "deep_sizeof",
    "measure_peak_memory",
    "format_experiment",
    "format_table",
]
