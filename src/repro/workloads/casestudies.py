"""The six scientific case studies (paper section 2, figure 1).

Each case study is modelled by its function-duration distribution; the
paper's figure 1 plots the latency distribution of 100 calls per study.
Parameters are calibrated from the durations quoted in the text:

* **Metadata extraction (Xtract)** — extractors run "between 3
  milliseconds and 15 seconds"; heavily right-skewed (most files are
  small text/CSV, a few need topic models).
* **ML inference (DLHub)** — the MNIST digit-identification model runs in
  tens of milliseconds; other models run seconds to minutes.
* **Synchrotron Serial Crystallography (SSX)** — DIALS stills processing
  takes "1–2 seconds per sample".
* **Neurocartography** — QC / center-detection / preview steps on ~20 GB
  per minute streams; seconds each.
* **High Energy Physics (HEP)** — "successive compiled functions, each
  running for seconds".
* **X-ray Photon Correlation Spectroscopy (XPCS)** — the XPCS-eigen
  ``corr`` function executes "for approximately 50 seconds".

Section 5.5.4 confirms the overall span used for the batching case
studies: "ranging in execution time from half a second through to almost
one minute".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CaseStudy:
    """A science workload characterized by its duration distribution.

    Durations are sampled from a clipped lognormal: ``median`` and
    ``sigma`` set the body of the distribution, ``low``/``high`` clip the
    tails to the ranges the paper quotes.
    """

    name: str
    description: str
    median: float          # seconds
    sigma: float           # lognormal shape
    low: float             # clip floor, seconds
    high: float            # clip ceiling, seconds

    def __post_init__(self) -> None:
        if not (self.low <= self.median <= self.high):
            raise ValueError(f"{self.name}: median outside [low, high]")
        if self.sigma < 0:
            raise ValueError(f"{self.name}: sigma must be non-negative")

    # ------------------------------------------------------------------
    def sample(self, rng: random.Random) -> float:
        """One function duration, seconds."""
        if self.sigma == 0:
            return self.median
        value = rng.lognormvariate(math.log(self.median), self.sigma)
        return min(self.high, max(self.low, value))

    def sample_many(self, n: int, seed: int | None = None) -> np.ndarray:
        """Vectorized sampling for figure-1-style distributions."""
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = np.random.default_rng(seed)
        if self.sigma == 0:
            return np.full(n, self.median)
        values = gen.lognormal(mean=math.log(self.median), sigma=self.sigma, size=n)
        return np.clip(values, self.low, self.high)


#: The six case studies of section 2, keyed by short name.
CASE_STUDIES: dict[str, CaseStudy] = {
    "metadata": CaseStudy(
        name="metadata",
        description="Xtract metadata extraction at the edge",
        median=0.5,
        sigma=1.6,
        low=0.003,
        high=15.0,
    ),
    "ml_inference": CaseStudy(
        name="ml_inference",
        description="DLHub MNIST digit-identification inference",
        median=0.08,
        sigma=0.5,
        low=0.02,
        high=1.0,
    ),
    "ssx": CaseStudy(
        name="ssx",
        description="DIALS stills processing for serial crystallography",
        median=1.5,
        sigma=0.25,
        low=1.0,
        high=2.5,
    ),
    "neuro": CaseStudy(
        name="neuro",
        description="Neurocartography QC / center detection / preview",
        median=3.0,
        sigma=0.7,
        low=0.5,
        high=20.0,
    ),
    "hep": CaseStudy(
        name="hep",
        description="Coffea columnar HEP analysis subtasks",
        median=2.0,
        sigma=0.6,
        low=0.5,
        high=15.0,
    ),
    "xpcs": CaseStudy(
        name="xpcs",
        description="XPCS-eigen corr pixel-correlation analysis",
        median=50.0,
        sigma=0.15,
        low=35.0,
        high=70.0,
    ),
}


def case_study(name: str) -> CaseStudy:
    """Look up a case study by short name."""
    try:
        return CASE_STUDIES[name]
    except KeyError:
        raise KeyError(
            f"unknown case study {name!r}; known: {sorted(CASE_STUDIES)}"
        ) from None
