"""Layer tracer for dp5links, installed from outside the package.

The tracer wraps public functions and methods of the package's layers after
the package is imported.  A wrapped module-level function is replaced under
every name that refers to it in every loaded ``dp5links`` module, so calls
made through ``from .linalg import rank`` and calls inside ``linalg`` itself
are both seen.  Methods are replaced on their class, and the ``Context``
stages are replaced by new ``cached_property`` objects around traced
builders.  Nothing in the package is edited.

For every traced name the tracer keeps a call count, inclusive time and self
time (inclusive time minus the time of traced callees).  Calls of every layer
except ``cyclo`` are also kept as spans (id, name, start, end, parent) in
memory.  ``cyclo`` operations run ~10^5 times per report, so they are counted
and timed in aggregate only, and their operands feed an operand profile.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from functools import cached_property

perf = time.perf_counter

STAGES = ("clebsch_census", "quadric_census", "cfg", "pic", "families", "normalizer")

# (module, attribute, metric name); several attributes may share one name.
FUNCTIONS = [
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "smith_normal_form", "linalg.int"),
    ("linalg", "int_rank", "linalg.int"),
    ("linalg", "int_kernel", "linalg.int"),
    ("linalg", "orthogonal_complement", "linalg.int"),
    ("projgeo", "residual_line", "projgeo.residual_line"),
    ("projgeo", "line_in_surface", "projgeo.line_in_surface"),
    ("groups", "fixed_locus", "groups.fixed_locus"),
    ("groups", "orbit_and_stabilizer", "groups.orbit_and_stabilizer"),
    ("picard", "reconstruct_picard", "picard.reconstruct_picard"),
    ("picard", "ruling_blowup_check", "picard.ruling_blowup_check"),
    ("picard", "selfmap_degree", "picard.selfmap_degree"),
    ("normalizer", "intertwiner", "normalizer.intertwiner"),
]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [name, start, child_time, span_id]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list = []  # [name, start, end, parent_id]
        self.stage_requests: dict[str, dict] = {}
        self.residual_results: set = set()
        self.meet_pairs: set = set()
        self.mul_zero_operands = 0
        self.mul_nonzero_coeffs = 0
        self.mul_operands = 0
        self.max_height_bits = 0

    # -- the wrapper -------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = True, observe=None):
        """Return a traced version of ``fn`` counted under ``name``.

        ``observe(args, result)`` runs after the call, outside the timed span.
        """
        stack, spans = self.stack, self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        calls.setdefault(name, 0)
        total_s.setdefault(name, 0.0)
        self_s.setdefault(name, 0.0)
        on_enter = self._on_stage_enter if name.startswith("stage.") else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[3] if parent else None
            if on_enter is not None:
                on_enter(name)
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if span:
                    spans[span_id] = (name, start, end, parent[3] if parent else None)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_stage_enter(self, name: str) -> None:
        if name in self.stage_requests:
            return
        check = next((f[0] for f in reversed(self.stack)
                      if f[0].startswith("report.check.")), None)
        parent = self.stack[-1][0] if self.stack else None
        self.stage_requests[name] = {
            "first_requested_by_check": check[len("report.check."):] if check else None,
            "parent_span": parent,
        }

    # -- operand observers --------------------------------------------------

    def _profile_operand(self, x) -> int:
        """Count nonzero coefficients of one operand and track its height."""
        coeffs = (x,) if isinstance(x, (int, Fraction)) else getattr(x, "coeffs", ())
        nonzero = 0
        height = self.max_height_bits
        for c in coeffs:
            if c:
                nonzero += 1
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > height:
                    height = bits
        self.max_height_bits = height
        return nonzero

    def _observe_mul(self, args, result) -> None:
        a = self._profile_operand(args[0])
        b = self._profile_operand(args[1])
        self.mul_operands += 2
        self.mul_nonzero_coeffs += a + b
        self.mul_zero_operands += (a == 0) + (b == 0)

    def _observe_operands(self, args, result) -> None:
        for x in args:
            self._profile_operand(x)

    def _observe_residual(self, args, result) -> None:
        self.residual_results.add(result)

    def _observe_meets(self, args, result) -> None:
        self.meet_pairs.add(frozenset(args[:2]))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer of the already imported dp5links package."""
        from dp5links import cyclo, projgeo, report

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dp5links" or n.startswith("dp5links."))]

        def replace_everywhere(orig, new) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)

        for mod_name, attr, metric in FUNCTIONS:
            orig = getattr(sys.modules[f"dp5links.{mod_name}"], attr)
            observe = self._observe_residual if metric == "projgeo.residual_line" else None
            replace_everywhere(orig, self.wrap(metric, orig, observe=observe))

        fe = cyclo.FieldElement
        self._wrap_method(fe, "__mul__", "cyclo.mul", span=False, observe=self._observe_mul)
        self._wrap_method(fe, "__add__", "cyclo.add", span=False, observe=self._observe_operands)
        self._wrap_method(fe, "inverse", "cyclo.inverse", span=False,
                          observe=self._observe_operands)
        self._wrap_method(projgeo.ProjLine, "meets", "projgeo.meets", observe=self._observe_meets)
        self._wrap_method(report.Report, "to_json", "report.to_json")

        for cid, fn in list(report.CHECK_FUNCTIONS.items()):
            new = self.wrap(f"report.check.{cid}", fn)
            report.CHECK_FUNCTIONS[cid] = new
            replace_everywhere(fn, new)

        for stage in STAGES:
            prop = report.Context.__dict__[stage]
            new = cached_property(self.wrap(f"stage.{stage}", prop.func))
            new.__set_name__(report.Context, stage)
            setattr(report.Context, stage, new)

    def _wrap_method(self, cls, attr: str, metric: str, span: bool = True, observe=None):
        """Wrap a method on its class, under every alias (``__rmul__ = __mul__``)."""
        orig = cls.__dict__[attr]
        new = self.wrap(metric, orig, span=span, observe=observe)
        for alias, value in list(cls.__dict__.items()):
            if value is orig:
                setattr(cls, alias, new)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, times and ratios gathered so far."""
        out: dict[str, float] = {}
        for name in sorted(self.calls):
            if name.startswith("stage.") or name.startswith("report.check."):
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.s"] = self.total_s[name]
        for stage in STAGES:
            out[f"stage.{stage}.s"] = self.total_s[f"stage.{stage}"]
        operands = self.mul_operands
        out["cyclo.mul.zero_operand_ratio"] = (
            self.mul_zero_operands / operands if operands else 0.0)
        out["cyclo.mul.mean_nonzero_coeffs"] = (
            self.mul_nonzero_coeffs / operands if operands else 0.0)
        out["cyclo.max_height_bits"] = self.max_height_bits
        residuals = self.calls["projgeo.residual_line"]
        out["projgeo.residual_line.new_ratio"] = (
            len(self.residual_results) / residuals if residuals else 0.0)
        meets = self.calls["projgeo.meets"]
        out["projgeo.meets.distinct_ratio"] = len(self.meet_pairs) / meets if meets else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for i, s in enumerate(self.spans) if s is not None
        ]

    def stage_records(self) -> dict[str, dict]:
        return {
            stage: dict(self.stage_requests.get(f"stage.{stage}", {}),
                        built=self.calls[f"stage.{stage}"] > 0,
                        s=self.total_s[f"stage.{stage}"])
            for stage in STAGES
        }
