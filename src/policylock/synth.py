"""Seeded synthetic data: adversarial feature families, treatment skew,
missingness grids, and deterministic train/holdout splits.

Every draw is a pure function of (seed, stream tag, row counter), so two runs
of the same spec produce bit-identical frames (see rng module for the exact
generator).  Outcome model, documented as normative for this artifact:

    z(row) = -1.0 + 0.6 * (x_eff - 0.5) + side(x_eff) * u[t]
    p(outcome=1) = 1 / (1 + exp(-z))

where x_eff is the post-missingness value of the planted feature (x_boundary
when present, else the first feature), side(x) is +1 when x <= 0.5 and -1
otherwise, missing cells take side -1 with a zero slope contribution, and u
is the per-treatment offset table below.  Making the outcome mechanism see
the same missing cells the router sees plants a genuine best split at the
0.5 boundary with the missing bin routed right.

One ordering nuance: missing_focus=positive_outcome needs outcomes before it
can place x_miss missingness, so when x_miss is itself the planted feature
under that focus, outcomes fall back to its pre-missing values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgumentError, UnsupportedConfigurationError, _check_int,
                     _check_types, _is_real)
from .frame import ColumnFrame, plant_missing
from .splitsearch import select_control
from . import rng

SEVERE_SKEW = {
    4: (0.90, 0.08, 0.015, 0.005),
    8: (0.88, 0.06, 0.025, 0.015, 0.008, 0.006, 0.004, 0.002),
}

BOUNDARY_MASS = 0.25          # fraction of x_boundary values pinned to 0.5
BOUNDARY_VALUE = 0.5
OUTCOME_BASE = -1.0
OUTCOME_SLOPE = 0.6
# per-treatment uplift offsets, cycled beyond 8 treatments
UPLIFT_OFFSETS = (0.0, 0.5, -0.4, 0.25, 0.4, -0.25, 0.15, -0.5)

KNOWN_FAMILIES = ("x_tie", "x_sparse", "x_miss", "x_control", "x_boundary")
_GENERIC_RE = re.compile(r"^generic\((\d+)\)$")


@dataclass(frozen=True)
class SynthSpec:
    n_rows: int
    n_treatments: int = 4
    seed: int = 7
    skew: str = "balanced"                 # balanced | severe
    p_miss: float = 0.0
    missing_encoding: str = "null"         # null | nan
    missing_focus: str = "uniform"         # uniform | control_arm | treated_arms | positive_outcome
    families: tuple[str, ...] = ("x_tie", "x_sparse", "x_miss", "x_control", "x_boundary")

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        _check_int(self.n_rows, "n_rows", 0)
        _check_int(self.n_treatments, "n_treatments")
        if self.n_treatments < 2:
            raise InvalidArgumentError("need at least two treatments")
        _check_int(self.seed, "seed")
        if self.skew not in ("balanced", "severe"):
            raise InvalidArgumentError(f"unknown skew {self.skew!r}")
        if not (_is_real(self.p_miss) and 0.0 <= self.p_miss <= 1.0):
            raise InvalidArgumentError(f"p_miss must be within [0, 1], got {self.p_miss!r}")
        if self.missing_encoding not in ("null", "nan"):
            raise InvalidArgumentError(f"unknown missing encoding {self.missing_encoding!r}")
        if self.missing_focus not in ("uniform", "control_arm", "treated_arms",
                                      "positive_outcome"):
            raise InvalidArgumentError(f"unknown missing focus {self.missing_focus!r}")
        for fam in self.families:
            if fam not in KNOWN_FAMILIES and not _GENERIC_RE.match(fam):
                raise InvalidArgumentError(f"unknown feature family {fam!r}")

    def feature_names(self) -> list[str]:
        names = []
        for fam in self.families:
            m = _GENERIC_RE.match(fam)
            if m:
                names.extend(f"x_gen_{i:02d}" for i in range(int(m.group(1))))
            else:
                names.append(fam)
        return names

    def treatment_probs(self) -> tuple[float, ...]:
        if self.skew == "balanced":
            return tuple(1.0 / self.n_treatments for _ in range(self.n_treatments))
        probs = SEVERE_SKEW.get(self.n_treatments)
        if probs is None:
            raise UnsupportedConfigurationError(
                f"severe skew is defined for T in {sorted(SEVERE_SKEW)}, "
                f"not T={self.n_treatments}")
        return probs

    def treatment_labels(self) -> tuple[str, ...]:
        if "x_control" in self.families:
            # ambiguous on purpose: no "control", no "0"; the lexicographic
            # rule must resolve, and it lands on the rarest severe arm
            return tuple(f"arm_{chr(ord('a') + self.n_treatments - 1 - i)}"
                         for i in range(self.n_treatments))
        return ("control",) + tuple(f"treat_{chr(ord('a') + i)}"
                                    for i in range(self.n_treatments - 1))


def _fill_family(spec: SynthSpec, name: str, codes: np.ndarray, out: np.ndarray) -> None:
    """Writes feature ``name``'s values into ``out``, its row of the block."""
    rng.fill_stream(out, spec.seed, f"feature:{name}")
    if name == "x_boundary":
        out[rng.uniform_stream(spec.seed, "boundary-mass", len(out)) < BOUNDARY_MASS] = \
            BOUNDARY_VALUE
    elif name == "x_tie":
        # two value groups only; every interior candidate between them induces
        # the identical row partition, forcing exactly equal scores
        np.copyto(out, np.where(out < 0.5, 0.05, 0.95))
    elif name == "x_sparse":
        # the last treatment arm never leaves the lowest bin
        np.divide(out, 64.0, out=out, where=codes == spec.n_treatments - 1)


def uplift_offset(t: int) -> float:
    if t == 0:
        return UPLIFT_OFFSETS[0]
    return UPLIFT_OFFSETS[1 + (t - 1) % (len(UPLIFT_OFFSETS) - 1)]


def generate(spec: SynthSpec) -> ColumnFrame:
    """Deterministic frame for a SynthSpec; see module docstring for the
    outcome model and family constructions."""
    _check_types((spec, SynthSpec))
    n = spec.n_rows
    labels = spec.treatment_labels()
    probs = spec.treatment_probs()
    codes = rng.choice_from_probs(spec.seed, "treatment", n, probs)
    names = spec.feature_names()

    # one [F, n] block whose rows are the feature columns
    block = np.empty((len(names), n))
    for name, row in zip(names, block):
        _fill_family(spec, name, codes, row)
    values = dict(zip(names, block))

    # missingness masks; focus applies to x_miss, the rest are uniform;
    # positive_outcome focus is deferred until outcomes exist
    masks: dict[str, np.ndarray] = {}
    deferred_positive = False
    if spec.p_miss > 0.0:
        control_code = labels.index(select_control(labels))
        for name in names:
            draw = rng.uniform_stream(spec.seed, f"missing:{name}", n)
            if name == "x_miss" and spec.missing_focus != "uniform":
                if spec.missing_focus == "control_arm":
                    focus = codes == control_code
                elif spec.missing_focus == "treated_arms":
                    focus = codes != control_code
                else:
                    deferred_positive = True
                    continue
                count = int(focus.sum())
                rate = min(1.0, spec.p_miss * n / count) if count else 0.0
                masks[name] = focus & (draw < rate)
            else:
                masks[name] = draw < spec.p_miss

    planted = "x_boundary" if "x_boundary" in values else (names[0] if names else None)
    if planted is not None:
        xp_eff = values[planted].copy()
        pm = masks.get(planted)
        if pm is not None:
            xp_eff[pm] = np.nan
        side = np.where(xp_eff <= 0.5, 1.0, -1.0)      # NaN compares False -> -1
        slope_x = np.where(np.isnan(xp_eff), 0.5, xp_eff)
    else:
        slope_x = np.full(n, 0.5)
        side = np.ones(n)
    offsets = np.array([uplift_offset(t) for t in range(spec.n_treatments)])
    z = OUTCOME_BASE + OUTCOME_SLOPE * (slope_x - 0.5) + side * offsets[codes]
    p = 1.0 / (1.0 + np.exp(-z))
    outcomes = (rng.uniform_stream(spec.seed, "outcome", n) < p).astype(np.int64)

    if deferred_positive:
        draw = rng.uniform_stream(spec.seed, "missing:x_miss", n)
        focus = outcomes == 1
        count = int(focus.sum())
        rate = min(1.0, spec.p_miss * n / count) if count else 0.0
        masks["x_miss"] = focus & (draw < rate)

    no_mask = np.zeros(n, dtype=bool)
    feature_values, feature_valid = [], []
    for name in names:
        vals, valid = plant_missing(values[name], masks.get(name, no_mask),
                                    spec.missing_encoding == "null")
        feature_values.append(vals)
        feature_valid.append(valid)

    treatments = np.array(labels, dtype=object)[codes]
    return ColumnFrame(np.arange(n, dtype=np.int64), names, feature_values,
                       feature_valid, treatments, outcomes)


def split_train_holdout(frame: ColumnFrame, holdout_fraction: float,
                        seed: int) -> tuple[ColumnFrame, ColumnFrame]:
    """Deterministic disjoint split; row order within each part preserved."""
    _check_types((frame, ColumnFrame))
    if not (_is_real(holdout_fraction) and 0.0 < holdout_fraction < 1.0):
        raise InvalidArgumentError(
            f"holdout_fraction must be in (0, 1), got {holdout_fraction!r}")
    _check_int(seed, "seed")
    n = frame.n_rows
    n_holdout = int(round(n * holdout_fraction))
    perm = rng.permutation(seed, "train-holdout", n)
    mask = np.zeros(n, dtype=bool)
    mask[perm[:n_holdout]] = True
    return frame.take(np.flatnonzero(~mask)), frame.take(np.flatnonzero(mask))
