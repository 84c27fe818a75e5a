"""The ``field-kernels`` workload: seeded field and elimination kernels.

Operands follow the profile measured on ``verify all`` (field operands
observed in a wrapped run of the full catalog):

- multiplication operands: 19% zero, 61% with one nonzero power-basis
  coefficient, 7% with two, 12% with three, 1% with four;
- inverse operands: 86% / 5% / 8% / 1% with one to four nonzero coefficients;
- addition operands: 41% zero, 35% / 7% / 17% with one to three nonzero
  coefficients;
- coefficient heights (the larger bit length of numerator and denominator):
  85% one bit, 10% two, 4% three, 1% four, the rest up to 10 bits; no
  height reaches 16 bits.

The call mix is that of ``verify all`` too: one repetition makes half of the
calls of each kernel that one cold report makes (see SIZES).  Matrices
take the shapes the verifier eliminates: 4x5 stacks of two line bases in
reduced echelon form, half of them built to meet (so of rank at most 3), and
5x3 systems whose columns are a plane basis in reduced echelon form and whose
right-hand side lies in the plane.  Every kernel is called through its module
attribute, so a tracer installed after import sees each call.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from dp5links import cyclo, linalg


def _table(weights: dict) -> tuple[list, list]:
    """Population and cumulative weights, for ``random.choices``."""
    return list(weights), list(itertools.accumulate(weights.values()))


MUL_NONZERO = _table({0: 19, 1: 61, 2: 7, 3: 12, 4: 1})
INVERSE_NONZERO = _table({1: 86, 2: 5, 3: 8, 4: 1})
ADD_NONZERO = _table({0: 41, 1: 35, 2: 7, 3: 17})
HEIGHT_BITS = _table({1: 8500, 2: 980, 3: 380, 4: 97, 5: 18, 6: 3, 7: 5, 8: 5, 9: 1, 10: 1})

# Kernel calls per repetition: half of the calls one cold ``verify all``
# report makes, counted by wrapping the kernels in a traced run of the full
# catalog.  Field operations count only the calls made outside ``linalg``
# (57204 products, 1549 inverses, 44639 sums); the eliminations add their own.
# ``rref`` counts only the calls made outside ``rank``, ``kernel_basis`` and
# ``solve``, which call it once each (3037 = 820 + 1095 + 497 + 625).  Half a
# report makes a repetition of about 6 s: long enough to average out the
# host's speed swings of a few seconds, short enough for 3 repetitions a run.
VERIFY_ALL_CALLS = {"mul": 57204, "inverse": 1549, "add": 44639,
                    "rank": 1095, "rref": 820, "kernel_basis": 497, "solve": 625}
SIZES = {name: calls // 2 for name, calls in VERIFY_ALL_CALLS.items()}


def _pick(rng: random.Random, table: tuple[list, list]) -> int:
    return rng.choices(table[0], cum_weights=table[1])[0]


def _coefficient(rng: random.Random) -> Fraction:
    bits = _pick(rng, HEIGHT_BITS)
    big = rng.randrange(1 << (bits - 1), 1 << bits)
    small = rng.randrange(1, 1 << bits)
    num, den = (big, small) if rng.random() < 0.5 else (small, big)
    return Fraction(rng.choice((-1, 1)) * num, den)


def _element(rng: random.Random, nonzero: tuple[list, list]) -> cyclo.FieldElement:
    count = _pick(rng, nonzero)
    if count == 0:
        return cyclo.ZERO
    coeffs = [Fraction(0)] * cyclo.DEGREE
    for k in rng.sample(range(cyclo.DEGREE), count):
        coeffs[k] = _coefficient(rng)
    return cyclo.FieldElement(coeffs)


def _echelon_basis(rng: random.Random, rows: int) -> list[list[cyclo.FieldElement]]:
    """Rows in reduced echelon form over 5 columns, with random pivot columns."""
    pivots = sorted(rng.sample(range(5), rows))
    basis = [[_element(rng, MUL_NONZERO) for _ in range(5)] for _ in range(rows)]
    for r, pivot in enumerate(pivots):
        for c in range(pivot):
            basis[r][c] = cyclo.ZERO
        for k, q in enumerate(pivots):
            basis[r][q] = cyclo.ONE if k == r else cyclo.ZERO
    return basis


def _stacked_lines(rng: random.Random, meeting: bool) -> list[list[cyclo.FieldElement]]:
    a = _echelon_basis(rng, 2)
    b = _echelon_basis(rng, 2)
    if meeting:
        s, t = _element(rng, INVERSE_NONZERO), _element(rng, INVERSE_NONZERO)
        b[0] = [s * x + t * y for x, y in zip(a[0], a[1])]
    return a + b


def _plane_system(rng: random.Random) -> tuple[list, list]:
    """Coordinates of a point in a plane: A is a plane basis as columns, b = A x."""
    a = linalg.transpose(_echelon_basis(rng, 3))
    x = [_element(rng, INVERSE_NONZERO) for _ in range(3)]
    return a, linalg.mat_vec(a, x)


def make_inputs(seed: int) -> dict:
    """The operands of one repetition; the same seed gives the same operands."""
    rng = random.Random(seed)
    stacks = [_stacked_lines(rng, meeting=(i % 2 == 0)) for i in range(SIZES["rank"])]
    systems = [_plane_system(rng) for _ in range(SIZES["solve"])]
    return {
        "mul": [(_element(rng, MUL_NONZERO), _element(rng, MUL_NONZERO))
                for _ in range(SIZES["mul"])],
        "inverse": [_element(rng, INVERSE_NONZERO) for _ in range(SIZES["inverse"])],
        "add": [(_element(rng, ADD_NONZERO), _element(rng, ADD_NONZERO))
                for _ in range(SIZES["add"])],
        "stacks": stacks,
        "systems": systems,
    }


def run(inputs: dict) -> dict:
    """The timed region of one repetition: every kernel call of the batch once.

    ``rank`` runs on every stack, ``rref`` and ``kernel_basis`` on a prefix.
    """
    stacks = inputs["stacks"]
    return {
        "mul": [a * b for a, b in inputs["mul"]],
        "inverse": [a.inverse() for a in inputs["inverse"]],
        "add": [a + b for a, b in inputs["add"]],
        "rank": [linalg.rank(m) for m in stacks],
        "rref": [linalg.rref(m) for m in stacks[:SIZES["rref"]]],
        "kernel_basis": [linalg.kernel_basis(m) for m in stacks[:SIZES["kernel_basis"]]],
        "solve": [linalg.solve(a, b) for a, b in inputs["systems"]],
    }


def check(inputs: dict, out: dict) -> tuple[int, int]:
    """(attempted, failed) kernel results; a result fails when its invariant fails."""
    valid = _invariants(inputs, out)
    attempted = sum(len(oks) for oks in valid.values())
    failed = sum(not ok for oks in valid.values() for ok in oks)
    return attempted, failed


def _invariants(inputs: dict, out: dict) -> dict[str, list[bool]]:
    """Whether each result satisfies its invariant.

    Stacks past the ``kernel_basis`` prefix get a kernel computed here, outside
    the timed region, so that every rank is checked against a nullity.
    """
    one = cyclo.ONE
    stacks = inputs["stacks"]
    kernels = out["kernel_basis"] + [linalg.kernel_basis(m)
                                     for m in stacks[len(out["kernel_basis"]):]]
    annihilated = [all(_is_zero_vector(linalg.mat_vec(m, v)) for v in ker)
                   for m, ker in zip(stacks, kernels)]
    return {
        "mul": [p == b * a for (a, b), p in zip(inputs["mul"], out["mul"])],
        "inverse": [a * inv == one for a, inv in zip(inputs["inverse"], out["inverse"])],
        "add": [s == b + a and s - a == b for (a, b), s in zip(inputs["add"], out["add"])],
        "rank": [ok and r + len(ker) == 5
                 for ok, r, ker in zip(annihilated, out["rank"], kernels)],
        "rref": [len(pivots) == r and _is_rref(red, pivots)
                 and all(_is_zero_vector(linalg.mat_vec(red, v)) for v in ker)
                 for (red, pivots), r, ker in zip(out["rref"], out["rank"], kernels)],
        "kernel_basis": [ok and len(ker) == 5 - r
                         for ok, ker, r in zip(annihilated, out["kernel_basis"], out["rank"])],
        "solve": [x is not None and linalg.mat_vec(a, x) == b
                  for (a, b), x in zip(inputs["systems"], out["solve"])],
    }


def _is_zero_vector(v) -> bool:
    return all(x.is_zero() for x in v)


def _is_rref(red, pivots) -> bool:
    for i, p in enumerate(pivots):
        if any(not red[i][c].is_zero() for c in range(p)):
            return False
        if any(red[k][p] != (cyclo.ONE if k == i else cyclo.ZERO) for k in range(len(red))):
            return False
    return all(x.is_zero() for row in red[len(pivots):] for x in row)
