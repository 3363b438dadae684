"""Per-layer tracing of bvcheck from outside the package.

``Tracer.install`` rebinds every binding of each traced function: the class
attribute for a method, and every ``bvcheck`` module attribute that holds a
module-level function (``akman_bracket`` is bound in ``brackets``,
``structures``, ``cli`` and the package itself).  ``uninstall`` restores
them all.  Nothing under ``src/`` is edited.

Span functions record (name, start, end, parent span, job id) in flat arrays
kept in memory and written out by ``write_spans`` when the run ends.  The two
hottest functions, ``Element.__init__`` and ``monomial_mul``, and the sign
helpers of ``graded`` are counted only; their time stays in the caller's
self time.  A span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, attribute or Class.method, layer name, kind)
TARGETS = (
    ("algebra", "Element.__init__", "algebra.element_new", COUNT),
    ("algebra", "monomial_mul", "algebra.monomial_mul", COUNT),
    ("algebra", "Element.__mul__", "algebra.mul", SPAN),
    ("operators", "Operator.apply", "operators.apply", SPAN),
    ("operators", "Operator.compose", "operators.compose", SPAN),
    ("operators", "Operator.is_square_zero", "operators.is_square_zero", SPAN),
    ("graded", "unshuffles", "graded.unshuffles", COUNT),
    ("graded", "koszul_sign", "graded.koszul_sign", COUNT),
    ("brackets", "akman_bracket", "brackets.akman_bracket", SPAN),
    ("brackets", "koszul_bracket", "brackets.koszul_bracket", SPAN),
    ("brackets", "akman_order_check", "brackets.akman_order_check", SPAN),
    ("linfty", "linfty_relation", "linfty.linfty_relation", SPAN),
    ("linfty", "verify_linfty", "linfty.verify_linfty", SPAN),
    ("structures", "check_gerstenhaber", "structures.check_gerstenhaber", SPAN),
    ("structures", "degree_split", "structures.degree_split", SPAN),
    ("structures", "check_derivation_lemma", "structures.check_derivation_lemma", SPAN),
    ("structures", "check_bvinfty", "structures.check_bvinfty", SPAN),
    ("structures", "induced_bv", "structures.induced_bv", SPAN),
    ("structures", "cohomology", "structures.cohomology", SPAN),
    ("linalg", "RowSpace.add", "linalg.RowSpace.add", SPAN),
    ("linalg", "RowSpace.reduce", "linalg.RowSpace.reduce", SPAN),
    ("linalg", "kernel_and_image", "linalg.kernel_and_image", SPAN),
    ("specfile", "parse_spec", "specfile.parse_spec", SPAN),
    ("cli", "run_suite", "cli.run_suite", SPAN),
    ("cli", "_emit", "cli.emit", SPAN),
)

SUITES = ("bv-core", "brackets", "linfty", "split", "derivation",
          "gerstenhaber", "cohomology")


def _per_layer_names() -> list[tuple[str, str]]:
    out = [
        ("algebra.mul.calls", "count"), ("algebra.mul.self_s", "s"),
        ("algebra.element_new.calls", "count"), ("algebra.monomial_mul.calls", "count"),
        ("operators.apply.calls", "count"), ("operators.apply.self_s", "s"),
        ("operators.apply.distinct_frac", "ratio"),
        ("operators.compose.calls", "count"), ("operators.compose.self_s", "s"),
        ("operators.is_square_zero.s", "s"),
        ("graded.unshuffles.calls", "count"), ("graded.koszul_sign.calls", "count"),
    ]
    for fn in ("akman_bracket", "koszul_bracket"):
        out += [(f"brackets.{fn}.calls.a{n}", "count") for n in range(1, 5)]
        out.append((f"brackets.{fn}.self_s", "s"))
    out += [
        ("brackets.akman_bracket.unit_arg_frac", "ratio"),
        ("brackets.akman_order_check.s", "s"),
        ("brackets.akman_order_check.tuples", "count"),
    ]
    out += [(f"linfty.linfty_relation.calls.n{n}", "count") for n in range(1, 4)]
    out += [("linfty.linfty_relation.self_s", "s"), ("linfty.verify_linfty.s", "s")]
    out += [(f"structures.{fn}.s", "s") for fn in (
        "check_gerstenhaber", "degree_split", "check_derivation_lemma",
        "check_bvinfty", "induced_bv", "cohomology")]
    out.append(("structures.cohomology.calls", "count"))
    out += [
        ("linalg.RowSpace.add.calls", "count"), ("linalg.RowSpace.add.self_s", "s"),
        ("linalg.RowSpace.reduce.calls", "count"), ("linalg.RowSpace.reduce.self_s", "s"),
        ("linalg.kernel_and_image.s", "s"),
        ("specfile.parse_spec.s", "s"),
    ]
    out += [(f"cli.run_suite.{s}.s", "s") for s in SUITES]
    out += [("cli.emit.s", "s"), ("trace.overhead_frac", "ratio")]
    return out


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = _per_layer_names()


def _is_constant(a) -> bool:
    """True for a nonzero multiple of the unit 1."""
    return len(a.coeffs) == 1 and not any(next(iter(a.coeffs)))


class Tracer:
    def __init__(self):
        self.job = -1
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        # spans as parallel flat arrays, one entry per span
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_job = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.counts: dict[str, int] = {}
        self._apply_pairs: set = set()
        self._restore: list = []

    # --- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._depth.append(0)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, nid: int, fn, args, kwargs):
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_job.append(self.job)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[nid] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.s_start[idx] = start
            self.s_end[idx] = end
            self._stack.pop()
            dur = end - start
            self.self_s[nid] += dur - self._child.pop()
            if self._child:
                self._child[-1] += dur
            self._depth[nid] -= 1
            if not self._depth[nid]:  # outermost span of this name
                self.incl_s[nid] += dur
            self.calls[nid] += 1

    # --- per-function hooks -------------------------------------------------

    def _hook(self, layer: str):
        """Extra counts taken from a call's arguments, or None."""
        if layer == "operators.apply":
            def hook(args):
                op, a = args[0], args[1]
                self._apply_pairs.add((self.job, frozenset(op.terms.items()),
                                       frozenset(a.coeffs.items())))
            return hook
        if layer in ("brackets.akman_bracket", "brackets.koszul_bracket"):
            def hook(args):
                brackets_args = tuple(args[1])
                n = len(brackets_args)
                self.count(f"{layer}.calls.a{n}")
                if layer == "brackets.akman_bracket" and n >= 2:
                    self.count("akman.multi_arg")
                    if any(_is_constant(a) for a in brackets_args):
                        self.count("akman.unit_arg")
            return hook
        if layer == "linfty.linfty_relation":
            return lambda args: self.count(f"{layer}.calls.n{args[1]}")
        return None

    def _wrap(self, layer: str, kind: str, fn):
        if kind == COUNT:
            key = f"{layer}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] = self.counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        hook = self._hook(layer)
        if layer == "cli.run_suite":
            @functools.wraps(fn)
            def per_suite(*args, **kwargs):
                return self.span(self._id(f"cli.run_suite.{args[0]}"), fn, args, kwargs)
            return per_suite
        if layer == "brackets.akman_order_check":
            nid = self._id(layer)

            @functools.wraps(fn)
            def order_check(*args, **kwargs):
                cert = self.span(nid, fn, args, kwargs)
                self.count(f"{layer}.tuples", cert.tuples_tested)
                return cert
            return order_check

        nid = self._id(layer)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if hook is not None:
                hook(args)
            return self.span(nid, fn, args, kwargs)
        return spanned

    # --- binding --------------------------------------------------------------

    def install(self) -> None:
        """Rebind every binding of every target; ``uninstall`` restores them."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bvcheck" or name.startswith("bvcheck.")]
        for mod_name, attr, layer, kind in TARGETS:
            mod = importlib.import_module(f"bvcheck.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(layer, kind, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(layer, kind, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, name, orig))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # --- results ----------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Raw per-name totals, for the parent process to combine."""
        stats = dict(self.counts)
        for name, nid in self._ids.items():
            stats[f"{name}.calls"] = self.calls[nid]
            stats[f"{name}.self_s"] = self.self_s[nid]
            stats[f"{name}.s"] = self.incl_s[nid]
        stats["operators.apply.distinct"] = len(self._apply_pairs)
        return stats

    def write_spans(self, path: str) -> None:
        """Spans as JSON: the names, then one [name, start, end, parent, job]
        row per span, times in integer nanoseconds from the first span."""
        t0 = self.s_start[0] if self.s_start else 0.0
        rows = zip(self.s_name, self.s_start, self.s_end, self.s_parent, self.s_job)
        with open(path, "w") as fh:
            fh.write('{"names": ' + json.dumps(self._names) + ', "spans": [\n')
            fh.write(",\n".join(
                f"[{n},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)},{p},{j}]"
                for n, s, e, p, j in rows))
            fh.write("\n]}\n")


def per_layer_metrics(stats: dict, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from ``layer_stats`` output (missing = 0)."""
    def get(key):
        return stats.get(key, 0)

    values = {}
    for name, _ in PER_LAYER:
        if name == "operators.apply.distinct_frac":
            calls = get("operators.apply.calls")
            values[name] = get("operators.apply.distinct") / calls if calls else 0.0
        elif name == "brackets.akman_bracket.unit_arg_frac":
            multi = get("akman.multi_arg")
            values[name] = get("akman.unit_arg") / multi if multi else 0.0
        elif name == "trace.overhead_frac":
            values[name] = overhead_frac
        else:
            values[name] = get(name)
    return values
