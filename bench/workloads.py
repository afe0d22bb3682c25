"""The benchmark's workloads: `klgeo sweep` invocations built from a seed.

The benchmark seed n picks the base-model seeds; the program only ever
sees the resulting CLI arguments and config file.  Reference outputs exist
for REFERENCE_SEED (the CLI's default seeds); other seeds are checked
against invariants that hold for any base model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# Mirrors experiments.DEFAULT_LAMBDA_GRID at the commit that defined the
# benchmark; a change to the program's default grid shows as failed rows.
DEFAULT_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 35.0, 50.0, 100.0)

REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    order: str
    n_seeds: int
    lambdas: tuple = DEFAULT_GRID
    warm_start: bool = False
    # extra sweep config keys (written to a config file); everything else
    # keeps the CLI defaults
    config: dict = field(default_factory=dict)

    def seeds(self, seed: int) -> list:
        return list(range(seed, seed + self.n_seeds))

    def argv(self, seed: int, config_path: str, out: str) -> list:
        seeds = self.seeds(seed)
        argv = ["sweep", "--config", config_path, "--out", out,
                "--order", self.order, "--plots",
                "--seeds", ",".join(str(s) for s in seeds)]
        if self.lambdas != DEFAULT_GRID:
            argv += ["--lambdas", ",".join(repr(float(l)) for l in self.lambdas)]
        if self.warm_start:
            argv.append("--warm-start")
        return argv

    def config_text(self) -> str:
        lines = ["command=sweep"] + [f"{k}={v}" for k, v in sorted(self.config.items())]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_bigram_cold",
        why="the paper's main study: 2 seeds x 12-point grid of cold J_beta "
            "ascents in the bigram family; batching over lambda x seeds acts here",
        order="bigram", n_seeds=2,
        config={"steps": 1000, "tvd_restarts": 2, "tvd_steps": 500}),
    Workload(
        name="tvd_refit",
        why="one ascent plus a 16-restart TVD fit; TVD restart batching and "
            "the TVD gradient act here and barely anywhere else",
        order="bigram", n_seeds=1, lambdas=(1.0,),
        config={"steps": 1000, "tvd_restarts": 16, "tvd_steps": 1000}),
    Workload(
        name="sweep_full_warm",
        why="full-order family warm-started along the grid: a serial chain at "
            "batch size 1, where batching along lambda should change nothing",
        order="full", n_seeds=1, warm_start=True,
        config={"steps": 1000, "tvd_restarts": 2, "tvd_steps": 500}),
)}
