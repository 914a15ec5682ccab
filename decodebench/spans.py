"""In-memory span recorder and the wrappers that feed it.

A span is the list ``[name, start, end, parent, decode_id, info]``: times
come from ``time.perf_counter``, ``parent`` is the index of the enclosing
span (-1 for a root), ``decode_id`` is the number of the decode the span
belongs to (None during set-up) and ``info`` holds a count taken at the
boundary (matmul size, pivots, annihilator rows).

The harness opens root spans itself (``Tracer.span``).  The library is
measured from outside: ``install`` replaces the names each module calls
through with wrappers and puts the originals back on exit, so nothing under
``src/`` changes.  Wrappers record only while a decode span is open, and a
field kernel called from inside another field kernel (``sub`` calling
``add``, ``matmul`` calling ``mul``) is not recorded separately, so the
``gf`` numbers count calls into the field layer from the layers above it.
A name that no longer exists is skipped, and the metrics that depend on it
are left out instead of failing the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sumrankdec import decoder, linalg
from sumrankdec.gf import ExtField, PrimeField

# Span names of the decoder stages, in the order decode() runs them.
STAGES = (
    "decoder.syndrome",
    "decoder.annihilator",
    "decoder.supports",
    "decoder.erasure",
    "decoder.verify",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self._open: list[int] = []
        self._decode_id: int | None = None
        self._in_kernel = False
        self._names_in_decode: set[str] = set()

    @contextmanager
    def span(self, name: str, decode_id: int | None = None):
        """Record a span opened by the harness; yields the span record."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, decode_id, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        outer = self._decode_id
        if decode_id is not None:
            self._decode_id = decode_id
            self._names_in_decode = set()
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            self._decode_id = outer

    def wrap(self, name, fn, info=None, kernel=False):
        """Wrap fn so each call inside a decode records a span.

        name is a span name or a function returning one at call time;
        info(args, result) gives the span's count.
        """

        def traced(*args, **kwargs):
            if self._decode_id is None or self._in_kernel:
                return fn(*args, **kwargs)
            label = name() if callable(name) else name
            self._names_in_decode.add(label)
            rec = [label, 0.0, 0.0, self._open[-1], self._decode_id, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            self._in_kernel = kernel
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._open.pop()
                self._in_kernel = False
            if info is not None:
                rec[5] = info(args, out)
            return out

        return traced

    def _syndrome_stage(self) -> str:
        # decode() computes the syndrome twice: first of Y, then of C_hat.
        seen = "decoder.syndrome" in self._names_in_decode
        return "decoder.verify" if seen else "decoder.syndrome"

    @contextmanager
    def install(self):
        """Patch the traced names into the library; restore them on exit."""
        patches = []

        def patch(owner, attr, span_names, make):
            if isinstance(owner, type):
                orig = vars(owner).get(attr)
            else:
                orig = getattr(owner, attr, None)
            if orig is None:
                return
            setattr(owner, attr, make(orig))
            patches.append((owner, attr, orig))
            self.installed.update(span_names)

        w = self.wrap
        patch(decoder, "syndrome", ["decoder.syndrome", "decoder.verify"],
              lambda f: w(self._syndrome_stage, f))
        patch(decoder, "compute_hsub", ["decoder.annihilator"],
              lambda f: w("decoder.annihilator", f, info=lambda a, out: (out[0].rows, out[1])))
        patch(decoder, "recover_block_supports", ["decoder.supports"],
              lambda f: w("decoder.supports", f))
        patch(decoder, "erasure_decode", ["decoder.erasure"],
              lambda f: w("decoder.erasure", f))
        patch(decoder, "sum_rank_weight", ["decoder.verify", "sumrank.weight"],
              lambda f: w("decoder.verify", w("sumrank.weight", f)))
        patch(decoder, "solve_unique", ["linalg.solve"], lambda f: w("linalg.solve", f))
        # Every elimination (rank, rref, right_kernel, solve_unique and
        # ref_with_transform, wherever they are imported) runs this engine.
        patch(linalg, "_rref_arrays", ["linalg.rref"],
              lambda f: w("linalg.rref", f, info=lambda a, out: len(out[2])))
        for cls in (PrimeField, ExtField):
            patch(cls, "matmul", ["gf.matmul"],
                  lambda f: w("gf.matmul", f, kernel=True, info=_matmul_size))
            for op in ("mul", "add", "sub", "neg", "inv"):
                patch(cls, op, [f"gf.{op}"],
                      lambda f, op=op: w(f"gf.{op}", f, kernel=True))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _matmul_size(args, out) -> int:
    a, b = np.shape(args[1]), np.shape(args[2])
    return a[0] * a[1] * b[1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-decode means of the traced layers, plus the set-up spans.

    Stage times include the kernels the stage calls; decoder.other.ms is
    the part of each decode that no stage span covers, and
    linalg.rref.self_ms the elimination time outside the field kernels.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    stage_time = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
            if rec[0] in STAGES:
                stage_time[rec[3]] += rec[2] - rec[1]
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    info_sum = defaultdict(float)
    info_max = defaultdict(float)
    other = 0.0
    decodes = 0
    hsub = []
    for i, rec in enumerate(spans):
        name, dur = rec[0], rec[2] - rec[1]
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child_time[i]
        if name == "decode":
            decodes += 1
            other += dur - stage_time[i]
        elif name == "decoder.annihilator" and rec[5] is not None:
            hsub.append(rec[5])
        elif isinstance(rec[5], (int, float)):
            info_sum[name] += rec[5]
            info_max[name] = max(info_max[name], rec[5])

    out: dict[str, float] = {}
    have = tracer.installed
    n = max(decodes, 1)
    for stage in STAGES:
        if stage in have:
            out[f"{stage}.ms"] = 1e3 * total[stage] / n
    out["decoder.other.ms"] = 1e3 * other / n
    if "decoder.annihilator" in have:
        out["decoder.t_hat"] = sum(t for _, t in hsub) / max(len(hsub), 1)
        out["decoder.annihilator.rows"] = sum(r for r, _ in hsub) / max(len(hsub), 1)
    if "gf.matmul" in have:
        out["gf.matmul.calls"] = calls["gf.matmul"] / n
        out["gf.matmul.ms"] = 1e3 * total["gf.matmul"] / n
        out["gf.matmul.mmac_per_s"] = info_sum["gf.matmul"] / max(total["gf.matmul"], 1e-12) / 1e6
        out["gf.matmul.tensor_mb"] = 8 * info_max["gf.matmul"] / 1e6
    if "gf.mul" in have:
        out["gf.mul.calls"] = calls["gf.mul"] / n
        out["gf.mul.ms"] = 1e3 * total["gf.mul"] / n
    if "gf.add" in have:
        adds = ("gf.add", "gf.sub", "gf.neg")
        out["gf.add.calls"] = sum(calls[a] for a in adds) / n
        out["gf.add.ms"] = 1e3 * sum(total[a] for a in adds) / n
    if "gf.inv" in have:
        out["gf.inv.calls"] = calls["gf.inv"] / n
    if "linalg.rref" in have:
        out["linalg.rref.calls"] = calls["linalg.rref"] / n
        out["linalg.rref.ms"] = 1e3 * total["linalg.rref"] / n
        out["linalg.rref.self_ms"] = 1e3 * own["linalg.rref"] / n
        out["linalg.rref.pivots"] = info_sum["linalg.rref"] / n
    if "linalg.solve" in have:
        out["linalg.solve.ms"] = 1e3 * total["linalg.solve"] / n
    if "sumrank.weight" in have:
        out["sumrank.weight.calls"] = calls["sumrank.weight"] / n
        out["sumrank.weight.ms"] = 1e3 * total["sumrank.weight"] / n

    # Set-up and input spans, opened by the harness.
    out["sumrank.sample_error.ms"] = 1e3 * total["sumrank.sample_error"] / max(calls["sumrank.sample_error"], 1)
    out["gf.table_build.ms"] = 1e3 * total["gf.table_build"]
    out["code.random_code.ms"] = 1e3 * total["code.random_code"]
    out["code.generator.ms"] = 1e3 * total["code.generator"]
    out["code.mindist.ms"] = 1e3 * total["code.mindist"]
    out["code.mindist.codewords_per_s"] = (
        info_sum["code.mindist"] / total["code.mindist"] if total["code.mindist"] else 0.0
    )
    out["trace.decodes"] = decodes
    return out
