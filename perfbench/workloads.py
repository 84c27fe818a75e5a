"""The benchmark's workloads and the golden digests of their reports."""

from __future__ import annotations

ALL_CHECKS = [
    "clebsch-smooth", "clebsch-orbit-4", "clebsch-orbit-5", "clebsch-census-lt8",
    "lines-27", "skew-families", "quadric-census-lt8", "general-position-k1-k2",
    "ruling-minus2", "picard-reconstruct", "invariant-ranks", "contractions-two",
    "divisor-relations", "selfmap-degree", "dp5-orbit-descent", "thm-g40",
]

# The checks that never touch Context.cfg, so never run lines27 residuation.
QUADRIC_SIDE_CHECKS = [
    "clebsch-smooth", "clebsch-orbit-4", "clebsch-orbit-5", "clebsch-census-lt8",
    "quadric-census-lt8", "general-position-k1-k2", "ruling-minus2",
    "selfmap-degree", "thm-g40",
]

# name -> (CLI check arguments or None for the kernel batch, sha256 of the JSON report)
WORKLOADS = {
    "verify-all": (
        ["all"], "bcd5004d72c79d6f3c8114e85db33f1843bb0fd6f254de83df6aacd3b10f5212"),
    "quadric-side": (
        QUADRIC_SIDE_CHECKS, "08b29102e2dac9afcfcd14b87dda7bafa89c900d5c9440f41eeb6410159182fd"),
    "field-kernels": (None, None),
}


def check_ids(workload: str) -> list[str]:
    """The checks a report of this workload holds, in report order."""
    args = WORKLOADS[workload][0]
    return sorted(ALL_CHECKS if args == ["all"] else args)
