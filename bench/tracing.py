"""Span wrappers around the public callables of each shearbasins layer.

A span is one call of a wrapped callable.  Spans are folded into per-name
aggregates as they close (calls, inclusive time, self time and counters),
held in memory and written out when the run ends: the hot layers (jet
multiplication, scalar word steps) close hundreds of thousands of spans per
run, too many to keep one by one.  Self time is a span's duration minus the
durations of its direct child spans.  Counters are also kept per parent
span name, so work can be attributed to the layer that asked for it.

The wrappers only time and count: every argument and result passes through
unchanged, which the benchmark checks by comparing traced and untraced
output bytes.
"""

from __future__ import annotations

import functools
from time import perf_counter

from shearbasins import cli, directions, dynamics, jets, maps

_MODULES = (jets, maps, dynamics, directions, cli)


def _elements(args, result) -> dict:
    return {"elements": args[1][0].size}


def _terms(args, result) -> dict:
    return {"terms_out": len(result.terms)} if isinstance(result, jets.Jet) else {}


def _orbit(args, result) -> dict:
    return {"steps": result.status.index}


def _classified(args, result) -> dict:
    codes, iters = result
    return {
        "elements": int(codes.size),
        "pixel_iters": int(iters.sum(dtype="int64")),
        "decided": int((codes != dynamics.CODE_UNDECIDED).sum()),
    }


# (owner, attribute, span name, counters); a function is replaced in every
# module that holds it, a method on its class
SPANS = (
    (jets.Jet, "__mul__", "jets.mul", _terms),
    (jets.Jet, "exp", "jets.exp", None),
    (jets.JetMap, "compose", "jets.compose", None),
    (maps.MapWord, "__call__", "maps.word_call", None),
    (maps.MapWord, "eval_batch", "maps.word_eval_batch", _elements),
    (maps.MapWord, "jet", "maps.word_jet", None),
    (maps.Prototype, "__call__", "maps.proto_call", None),
    (maps.Prototype, "eval_batch", "maps.proto_eval_batch", _elements),
    (maps, "eval_pushforward", "maps.pushforward_call", None),
    (maps, "push_forward", "maps.push_forward", None),
    (maps, "verify_normal_form", "maps.verify_normal_form", None),
    (dynamics, "iterate", "dynamics.iterate", _orbit),
    (dynamics, "check_semiconjugacy", "dynamics.check_semiconjugacy", None),
    (dynamics, "check_equivariance", "dynamics.check_equivariance", None),
    (dynamics, "check_fiber_invariance", "dynamics.check_fiber_invariance", None),
    (dynamics, "check_projection_statuses", "dynamics.check_projection_statuses", None),
    (dynamics, "check_trace_consistency", "dynamics.check_trace_consistency", None),
    (dynamics, "check_product_recursion", "dynamics.check_product_recursion", None),
    (dynamics, "petal_rate", "dynamics.petal_rate", None),
    (dynamics, "classify_batch", "dynamics.classify_batch", _classified),
    (dynamics, "sample_slice", "dynamics.sample_slice", None),
    (dynamics, "write_pgm", "dynamics.write_pgm", None),
    (directions, "leading_term", "directions.leading_term", None),
    (directions, "characteristic_directions", "directions.characteristic_directions", None),
    (cli, "main", "cli.main", None),
    (cli, "run_verify_suite", "cli.run_verify_suite", None),
)


class Tracer:
    """Installs the span wrappers and holds their aggregates until ``close``."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # one [name, child seconds] frame per open span
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counters in SPANS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            holders = [owner] if isinstance(owner, type) else [
                m for m in _MODULES if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._restore.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapper)

    def close(self) -> None:
        """Put the original callables back."""
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, counters):
        stat = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_parent": {}})
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - frame[1]
            if counters is not None:
                per_parent = stat["by_parent"].setdefault(parent, {})
                for key, value in counters(args, result).items():
                    per_parent[key] = per_parent.get(key, 0) + value
            return result

        return wrapper

    def counter(self, name: str, key: str, parent: str | None = "*") -> int:
        """A counter summed over all parents, or taken under one parent name."""
        by_parent = self.stats[name]["by_parent"]
        if parent != "*":
            return by_parent.get(parent, {}).get(key, 0)
        return sum(c.get(key, 0) for c in by_parent.values())

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer can give on its own."""
        s = self.stats

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        word_call = s["maps.word_call"]
        word_batch = s["maps.word_eval_batch"]
        word_elements = self.counter("maps.word_eval_batch", "elements")
        classify = "dynamics.classify_batch"
        evaluated = (self.counter("maps.word_eval_batch", "elements", classify)
                     + self.counter("maps.proto_eval_batch", "elements", classify))
        out = {
            "jets.mul.calls": s["jets.mul"]["calls"],
            "jets.mul.self_s": s["jets.mul"]["self_s"],
            "jets.mul.terms_out": self.counter("jets.mul", "terms_out"),
            "jets.exp.calls": s["jets.exp"]["calls"],
            "jets.exp.self_s": s["jets.exp"]["self_s"],
            "jets.compose.calls": s["jets.compose"]["calls"],
            "jets.compose.self_s": s["jets.compose"]["self_s"],
            "maps.word_call.calls": word_call["calls"],
            "maps.word_call.self_s": word_call["self_s"],
            "maps.word_call.steps_per_s": ratio(word_call["calls"], word_call["total_s"]),
            "maps.pushforward_call.calls": s["maps.pushforward_call"]["calls"],
            "maps.pushforward_call.self_s": s["maps.pushforward_call"]["self_s"],
            "maps.word_eval_batch.calls": word_batch["calls"],
            "maps.word_eval_batch.elements": word_elements,
            "maps.word_eval_batch.self_s": word_batch["self_s"],
            "maps.word_eval_batch.elements_per_s": ratio(word_elements, word_batch["total_s"]),
            "maps.word_eval_batch.mean_batch": ratio(word_elements, word_batch["calls"]),
            "maps.proto_eval_batch.calls": s["maps.proto_eval_batch"]["calls"],
            "maps.proto_eval_batch.elements": self.counter("maps.proto_eval_batch", "elements"),
            "maps.proto_eval_batch.self_s": s["maps.proto_eval_batch"]["self_s"],
            "maps.word_jet.self_s": s["maps.word_jet"]["self_s"],
            "maps.push_forward.self_s": s["maps.push_forward"]["self_s"],
            "maps.verify_normal_form.self_s": s["maps.verify_normal_form"]["self_s"],
            "dynamics.iterate.calls": s["dynamics.iterate"]["calls"],
            "dynamics.iterate.steps": self.counter("dynamics.iterate", "steps"),
            "dynamics.iterate.self_s": s["dynamics.iterate"]["self_s"],
            "dynamics.classify_batch.calls": s[classify]["calls"],
            "dynamics.classify_batch.pixel_iters": self.counter(classify, "pixel_iters"),
            "dynamics.classify_batch.self_s": s[classify]["self_s"],
            "dynamics.classify_batch.decided_frac": ratio(self.counter(classify, "decided"),
                                                          self.counter(classify, "elements")),
            "dynamics.classify_batch.useful_frac": ratio(self.counter(classify, "pixel_iters"), evaluated),
            "dynamics.sample_slice.self_s": s["dynamics.sample_slice"]["self_s"],
            "directions.leading_term.self_s": s["directions.leading_term"]["self_s"],
            "directions.characteristic_directions.calls": s["directions.characteristic_directions"]["calls"],
            "directions.characteristic_directions.self_s": s["directions.characteristic_directions"]["self_s"],
            "cli.main.s": s["cli.main"]["total_s"],
            "cli.run_verify_suite.s": s["cli.run_verify_suite"]["total_s"],
            "dynamics.write_pgm.s": s["dynamics.write_pgm"]["total_s"],
        }
        for check in ("check_semiconjugacy", "check_equivariance", "check_fiber_invariance",
                      "check_projection_statuses", "check_trace_consistency",
                      "check_product_recursion", "petal_rate"):
            out[f"dynamics.{check}.s"] = s[f"dynamics.{check}"]["total_s"]
        return out
