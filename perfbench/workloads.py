"""Seeded operation lists for the genuslift benchmark.

A workload draws, from its seed, a *first op* for each fresh process and an
endless sequence of *batches*.  First ops are always of the workload's first
class, so their cold cost does not depend on which class a seed happens to
put first; each process gets its own point.  Every batch holds one
operation of each of the workload's classes, in a seeded order, each at a
freshly drawn point.  The timed loop runs whole batches, so every run sees
the same class mix and no operation repeats.

Every first op and every batch is drawn from its own generator, so any
process can rebuild any of them, and the same (workload, seed) always gives
a byte-identical operation list.

Operations are argument lists for ``genuslift.cli.run_command``.  Values are
passed in the ``--point=<x>`` / ``--tau=<json>`` form because argparse reads
a separate argument with a leading ``-`` as a flag.  Precision and tolerance
are the command-line defaults, spelled out so that an environment override
cannot change them.

Coordinates are drawn as rationals with odd denominators, so no coordinate
has a short binary expansion: every mpmath mantissa is full width, as it is
for a generic user point.  Nothing is redrawn after drawing: an operation
that fails counts as failed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List

_COMMON = ["--precision=256", "--tolerance=1e-30", "--format=json"]

# odd denominators for coordinates of order 1 and for couplings below 1/8;
# each interval drawn from holds a non-integer multiple of every choice
_COARSE = tuple(range(3, 24, 2))
_FINE = tuple(range(17, 64, 2))


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, dens=_COARSE) -> Fraction:
    """A rational in [lo, hi] with an odd denominator (not 1)."""
    den = rng.choice(dens)
    low = -((-lo * den) // 1)  # ceil(lo * den)
    high = (hi * den) // 1
    while True:
        x = Fraction(rng.randint(int(low), int(high)), den)
        if x.denominator != 1:
            return x


def _magnitude(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational of absolute value in [lo, hi] with a random sign."""
    return _rational(rng, lo, hi) * rng.choice((1, -1))


def _point_arg(coords) -> str:
    return "--point=" + ",".join(str(x) for x in coords)


def _tau_arg(rows) -> str:
    doc = {"t": [[str(x) for x in row] for row in rows]}
    return "--tau=" + json.dumps(doc, separators=(",", ":"))


def _op(command: str, model: str, g: int, value_arg: str, dimension: int) -> Dict:
    argv = [command, f"--model={model}", value_arg, f"--g={g}"] + _COMMON
    return {"command": command, "model": model, "g": g, "dimension": dimension, "argv": argv}


# -- genus3-two-primary -----------------------------------------------------------

# polynomial (t1^4, t1^5), exponential (d = 1) and Laurent (t1^-3, t1^-2)
# potentials of the two-primary family
# d = 1/2 first: it is the first op of every process
_TWO_PRIMARY_DIMENSIONS = ("1/2", "1/3", "1", "3/2", "5/3")


def _genus3_two_primary(rng: random.Random) -> List[Dict]:
    ops = []
    for d in _TWO_PRIMARY_DIMENSIONS:
        t0 = _rational(rng, Fraction(-1), Fraction(1))
        # t1 away from 0, where the Laurent potentials are singular and the
        # multiplication stops being semisimple
        t1 = _magnitude(rng, Fraction(1, 3), Fraction(3, 2))
        ops.append(_op("genus", f"two-primary:d={d}", 3, _point_arg((t0, t1)), 2))
    return ops


# -- genus2-cusp ------------------------------------------------------------------


def _genus2_cusp(rng: random.Random) -> List[Dict]:
    # the discriminant runs through t1 = t2 = 0 and along a curve in t2 > 0
    # (near t2 = |t1|); with t2 <= -1/3 and |t1| >= 1/4 the canonical
    # coordinates stay more than 0.2 apart (t0 only shifts them all)
    t0 = _rational(rng, Fraction(-1), Fraction(1))
    t1 = _magnitude(rng, Fraction(1, 4), Fraction(1))
    t2 = -_rational(rng, Fraction(1, 3), Fraction(1))
    return [_op("genus", "threefold-cusp", 2, _point_arg((t0, t1, t2)), 3)]


# -- descendent-mix ---------------------------------------------------------------

_POINT_KMAX = 5  # couplings t_0 .. t_5, as in the descendent acceptance samples
_POINT_COUPLING = Fraction(1, 10)
_TWO_PRIMARY_KMAX = 2
_TWO_PRIMARY_COUPLING = Fraction(1, 16)


def _point_tau(rng: random.Random):
    return [
        (_rational(rng, -_POINT_COUPLING, _POINT_COUPLING, _FINE),)
        for _ in range(_POINT_KMAX + 1)
    ]


def _two_primary_tau(rng: random.Random):
    # t_0 sits at a semisimple point (second coordinate away from 0); the
    # higher couplings stay small, since a large t_1 stalls the Newton solve
    # for the critical point
    rows = [(
        _rational(rng, Fraction(-1, 8), Fraction(1, 8), _FINE),
        _rational(rng, Fraction(1, 8), Fraction(1, 4), _FINE),
    )]
    for _ in range(_TWO_PRIMARY_KMAX):
        rows.append(tuple(
            _rational(rng, -_TWO_PRIMARY_COUPLING, _TWO_PRIMARY_COUPLING, _FINE)
            for _ in range(2)
        ))
    return rows


def _descendent_mix(rng: random.Random) -> List[Dict]:
    return [
        _op("descendent", "point", 2, _tau_arg(_point_tau(rng)), 1),
        _op("descendent", "point", 3, _tau_arg(_point_tau(rng)), 1),
        _op("descendent", "two-primary:d=1/2", 2, _tau_arg(_two_primary_tau(rng)), 2),
    ]


_DRAWS = {
    "genus3-two-primary": _genus3_two_primary,
    "genus2-cusp": _genus2_cusp,
    "descendent-mix": _descendent_mix,
}

WORKLOADS = tuple(_DRAWS)


def _draw(workload: str, seed: int, stream: str):
    if workload not in _DRAWS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}/{stream}")
    return _DRAWS[workload](rng), rng


def first_op(workload: str, seed: int, process: int) -> Dict:
    """The op fresh process ``process`` runs first: the workload's first
    class, at a point of its own."""
    return _draw(workload, seed, f"first{process}")[0][0]


def batch(workload: str, seed: int, index: int) -> List[Dict]:
    """Batch ``index``: one op of each class, in a seeded order."""
    ops, rng = _draw(workload, seed, f"batch{index}")
    rng.shuffle(ops)
    return ops


def models(workload: str) -> List[str]:
    """The distinct ``--model`` specs a workload uses, in a fixed order."""
    return sorted({op["model"] for op in batch(workload, 0, 0)})
