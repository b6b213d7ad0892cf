"""A call tracer that wraps skewtor's public functions from outside.

``Tracer.install`` replaces each target function in every ``skewtor`` module
namespace that binds it (``skewtor.orechain.elem_mul`` and
``skewtor.skewder.elem_mul`` alike) and each target method on its class.
``Tracer.uninstall`` puts every original object back.  Nothing under ``src/``
changes.

Per wrapped label the tracer keeps the number of calls, the inclusive time of
the outermost calls (a recursive call inside a call of the same label is not
counted twice) and the self time (duration minus the time of wrapped calls
made inside it).  Calls are also keyed by the module namespace they came
through, so ``exprs.evaluate`` called from ``orechain`` is told apart from
the parser's calls.  Spans of the coarse labels (phases, parse, report) are
kept in memory with their parent span and written out once by ``dump``.

The engine is single-threaded and does no I/O inside the timed path, so no
layer has waiting time; the tracer records none.  ``lattice`` is not wrapped:
the command line never reaches it (only ``classify_extension`` calls
``sigma_inner_witness``).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # defining module, relative to the package: "torus"
    name: str  # "elem_mul" or "FieldElement.__mul__"
    span: bool = False  # keep one span record per call
    pre: Callable | None = None  # hook(tracer, args) before the call
    post: Callable | None = None  # hook(tracer, args, result) after it


def _count_term_pairs(tracer: Tracer, args) -> None:
    # elem_mul(Q, u, v): the inner loop runs |u| * |v| times
    tracer.counts["torus.term_pairs"] += len(args[1].terms) * len(args[2].terms)


def _count_unit_den(tracer: Tracer, args) -> None:
    # FieldElement(num, den, ...): is den the constant polynomial 1?
    terms = args[2].terms
    if len(terms) == 1:
        (exps, c), = terms.items()
        if c == 1 and not any(exps):
            tracer.counts["scalars.unit_den"] += 1


def _count_pair(tracer: Tracer, args, equal) -> None:
    # validate_derivation ends the check of each generator pair with one
    # `lhs != rhs`; count the comparisons it makes itself (frame 0 is this
    # hook, 1 the wrapper, 2 the caller), not those of the functions it calls.
    # The pair is live when a side is nonzero: both images zero make both
    # sides zero, and a nonzero image leaves a nonzero side unless its terms
    # cancel.
    caller = sys._getframe(2)
    if (
        caller.f_code.co_name == "validate_derivation"
        and caller.f_globals.get("__name__") == f"{PACKAGE}.skewder"
    ):
        lhs, rhs = args
        tracer.counts["skewder.validate_pairs"] += 1
        tracer.counts["skewder.validate_live_pairs"] += not (lhs.is_zero() and rhs.is_zero())


_FIELD_METHODS = (
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
    "__eq__", "__pow__", "inv", "from_unit",
)

TARGETS: tuple[Target, ...] = (
    Target("presentation", "load_presentation", span=True),
    Target("exprs", "evaluate"),
    Target("orechain", "run_all", span=True),
    Target("orechain", "run_stage", span=True),
    Target("orechain", "translate_derivation", span=True),
    Target("orechain", "extend_by_ore", span=True),
    Target("orechain", "verify_normal", span=True),
    Target("orechain", "weyl_witness", span=True),
    Target("skewder", "validate_derivation", span=True),
    Target("skewder", "extend_derivation"),
    Target("skewder", "classify_component"),
    Target("skewder", "decompose_homogeneous"),
    Target("ore", "OreElement.__mul__"),
    Target("torus", "elem_mul", pre=_count_term_pairs),
    Target("torus", "monomial_mul"),
    Target("torus", "CommutationMatrix.append_row"),
    Target("torus", "TorusElement.__eq__", post=_count_pair),
    *(
        Target("scalars", f"FieldElement.{m}", pre=_count_unit_den if m == "__init__" else None)
        for m in _FIELD_METHODS
    ),
    Target("report", "build_report", span=True),
    Target("report", "to_json", span=True),
    Target("render", "render_element"),
    Target("render", "render_unit"),
    Target("render", "render_scalar"),
)

PACKAGE = "skewtor"


def _package_modules() -> dict[str, object]:
    """Import every submodule, so every namespace that binds a target exists."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":  # importing it would run the command line
            importlib.import_module(f"{PACKAGE}.{info.name}")
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


class Tracer:
    """Wrappers, in-memory statistics and spans for one traced run."""

    def __init__(self):
        # (label, site) -> [calls, inclusive seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {
            "torus.term_pairs": 0,
            "scalars.unit_den": 0,
            "skewder.validate_pairs": 0,
            "skewder.validate_live_pairs": 0,
        }
        self.errors = 0
        self.spans: list[tuple | None] = []
        self._last_error: BaseException | None = None
        self._active: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._span_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._log: list[tuple[object, str, object]] = []  # every patch ever made

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        try:
            for t in TARGETS:
                label = f"{t.module}.{t.name}"
                owner = modules[f"{PACKAGE}.{t.module}"]
                if "." in t.name:
                    cls_name, attr = t.name.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, label, "", t))
                    else:
                        new = self._wrap(raw, label, "", t)
                    self._patch(cls, attr, raw, new)
                    continue
                fn = getattr(owner, t.name)
                for mod_name, mod in modules.items():
                    site = mod_name.rpartition(".")[2]
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, fn, self._wrap(fn, label, site, t))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        self._log.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def restored(self) -> bool:
        """True when every binding this tracer replaced holds its original."""
        return all(vars(owner).get(attr) is original for owner, attr, original in self._log)

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, fn, label: str, site: str, target: Target):
        stat = self.stats.setdefault((label, site), [0, 0.0, 0.0])
        active, stack, spans, span_stack = (
            self._active, self._stack, self.spans, self._span_stack,
        )
        pre, post, record = target.pre, target.post, target.span
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            frame = [0.0]
            stack.append(frame)
            depth = active.get(label, 0)
            active[label] = depth + 1
            if record:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.errors += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                active[label] = depth
                stat[0] += 1
                stat[2] += dur - frame[0]
                if not depth:
                    stat[1] += dur
                if stack:
                    stack[-1][0] += dur
                if record:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    spans[sid] = (sid, parent, label, site, t0, t1)
            if post is not None:
                post(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- queries -----------------------------------------------------------------

    def calls(self, label: str, site: str | None = None) -> int:
        return sum(s[0] for (l, st), s in self.stats.items() if l == label and site in (None, st))

    def inclusive(self, label: str, site: str | None = None) -> float:
        return sum(s[1] for (l, st), s in self.stats.items() if l == label and site in (None, st))

    def self_time(self, label: str) -> float:
        return sum(s[2] for (l, _), s in self.stats.items() if l == label)

    def dump(self, path) -> None:
        """Write the spans and the per-label statistics once, as JSON."""
        doc = {
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "site": s[3], "start": s[4], "end": s[5]}
                for s in self.spans
                if s is not None
            ],
            "stats": [
                {"name": l, "site": st, "calls": c, "inclusive_s": inc, "self_s": slf}
                for (l, st), (c, inc, slf) in sorted(self.stats.items())
            ],
            "counts": self.counts,
            "layer_errors": self.errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
