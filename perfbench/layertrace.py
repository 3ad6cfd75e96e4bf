"""Outside-in layer trace for the benchmark worker.

Wraps public functions of the ghlcert modules and rebinds every name that
refers to them, in every ghlcert module: ``from .criteria import
witness_stage`` gives ``certify`` a second binding, and patching only
``criteria`` would miss the calls made through it.  Nothing under ``src/``
is changed.

Three kinds of wrapper:

* span: stage-level calls.  Each call keeps a span (id, parent id, command
  index, name, start, end) in memory and adds to the call count, the
  inclusive time and the self time of its name.
* timed: hot calls that still need a time.  Counts and times like a span,
  but keeps no span record.
* counted: hot scalars.  Call counts only; their time stays in the self
  time of the caller.

Self time is inclusive time minus the time of traced (span or timed)
children.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.hits = Counter()
        self.nbytes = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans: list[tuple] = []
        self.cmd = None
        self._stack: list[list] = []
        self._next_id = 0

    def timed(self, name, fn, *, keep_span=True, outcome=None, size=None,
              probe=None):
        """Wrapper that times each call.  ``outcome(args, result)`` true
        counts a hit; ``size(args, result)`` adds computed bytes; with
        ``probe`` set, a call during which ``probe`` was never called counts
        a hit (a cache that did not rebuild)."""
        stack, spans, calls = self._stack, self.spans, self.calls

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            before = calls[probe] if probe else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self.incl[name] += dur
                self.self_s[name] += dur - frame[0]
                if keep_span:
                    spans.append((span_id, parent, self.cmd, name, t0, t1))
            if outcome is not None and outcome(args, result):
                self.hits[name] += 1
            if size is not None:
                self.nbytes[name] += size(args, result)
            if probe and calls[probe] == before:
                self.hits[name] += 1
            return result

        return wrapper

    def counted(self, name, fn, *, outcome=None, probe=None):
        calls, hits = self.calls, self.hits
        if outcome is None and probe is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            before = calls[probe] if probe else 0
            result = fn(*args, **kwargs)
            if outcome is not None and outcome(args, result):
                hits[name] += 1
            if probe and calls[probe] == before:
                hits[name] += 1
            return result
        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, s, own = self.calls, self.incl, self.self_s
        m: dict = {}

        def calls(name):
            m[name + ".calls"] = (c[name], "count")

        def incl(name):
            m[name + ".s"] = (s[name], "s")

        def self_time(name):
            m[name + ".self_s"] = (own[name], "s")

        def ratio(key, name):
            m[key] = (self.hits[name] / c[name] if c[name] else 0.0, "ratio")

        self_time("cli.main")
        m["cli.out_bytes"] = (self.nbytes["cli.out"], "bytes")
        durs = sorted((t1 - t0) * 1000.0 for _, _, _, name, t0, t1
                      in self.spans if name == "certify.full_certify")
        calls("certify.full_certify")
        incl("certify.full_certify")
        m["certify.full_certify.p50_ms"] = (_percentile(durs, 50), "ms")
        m["certify.full_certify.p98_ms"] = (_percentile(durs, 98), "ms")
        for name in ("certify.to_json_dict", "certify.special_2adic_certify",
                     "certify.special_3adic_check",
                     "certify.laguerre_np_certify"):
            calls(name)
            incl(name)
        calls("criteria.witness_stage")
        incl("criteria.witness_stage")
        self_time("criteria.witness_stage")
        calls("criteria.find_exclusion_prime")
        incl("criteria.find_exclusion_prime")
        ratio("criteria.find_exclusion_prime.hit_ratio",
              "criteria.find_exclusion_prime")
        for stage in ("delta", "window", "margin"):
            incl(f"criteria.{stage}_stage")
        calls("criteria.claim")
        ratio("criteria.claim.useful_ratio", "criteria.claim")
        ratio("criteria.polygon_cache.hit_ratio", "criteria.polygon_cache")
        for name in ("newton.polygon_from_params",
                     "newton.polygon_from_ordinates",
                     "newton.admissible_degrees"):
            calls(name)
            incl(name)
        calls("newton.viable_margin")
        calls("newton.widest_window")
        calls("valuation.coefficient_valuations")
        incl("valuation.coefficient_valuations")
        calls("valuation.nu")
        calls("polynomials.term")
        calls("sieve.prime_factors")
        incl("sieve.prime_factors")
        m["sieve.spf_table.builds"] = (c["sieve.spf_table"], "count")
        incl("sieve.spf_table")
        m["sieve.spf_table.bytes"] = (self.nbytes["sieve.spf_table"], "bytes")
        calls("sieve.gpf_array")
        incl("sieve.gpf_array")
        self_time("sieve.gpf_array")
        calls("sieve.prime_flags")
        incl("sieve.prime_flags")
        m["sieve.prime_flags.bytes"] = (self.nbytes["sieve.prime_flags"],
                                        "bytes")
        calls("sieve.shared_table")
        ratio("sieve.shared_table.hit_ratio", "sieve.shared_table")
        for name in ("sieve.verify_gpf_bound", "sieve.exact_p5_pairs",
                     "sieve.ap_prime_gaps"):
            self_time(name)
        return m


def _percentile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100,
                                method="inclusive")[pct - 1]


def _rebind(original, replacement) -> int:
    """Point every ghlcert module-level name bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod in list(sys.modules.values()):
        if mod is None or mod.__name__.split(".")[0] != "ghlcert":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                changed += 1
    if not changed:
        raise RuntimeError(f"no ghlcert binding found for {original!r}")
    return changed


def install() -> Tracer:
    """Wrap the traced public functions of an imported ghlcert and return
    the tracer that records them."""
    from ghlcert import certify, cli, criteria, newton, polynomials, sieve
    from ghlcert import valuation

    t = Tracer()

    def function(module, attr, wrapper_of):
        original = getattr(module, attr)
        _rebind(original, wrapper_of(original))

    def method(cls, attr, wrapper_of):
        setattr(cls, attr, wrapper_of(vars(cls)[attr]))

    def span(name, **kw):
        return lambda fn: t.timed(name, fn, **kw)

    def count(name, **kw):
        return lambda fn: t.counted(name, fn, **kw)

    function(cli, "main", span("cli.main"))
    for attr in ("full_certify", "special_2adic_certify",
                 "special_3adic_check", "laguerre_np_certify"):
        function(certify, attr, span(f"certify.{attr}"))
    method(certify.Certificate, "to_json_dict",
           span("certify.to_json_dict"))
    for attr in ("witness_stage", "delta_stage", "window_stage",
                 "margin_stage"):
        function(criteria, attr, span(f"criteria.{attr}"))
    function(criteria, "find_exclusion_prime",
             span("criteria.find_exclusion_prime",
                  outcome=lambda a, r: r is not None))
    method(criteria.DegreeLedger, "claim",
           count("criteria.claim", outcome=lambda a, r: r is not None))
    method(criteria.PolygonCache, "polygon",
           count("criteria.polygon_cache",
                 probe="newton.polygon_from_params"))
    for attr in ("polygon_from_params", "polygon_from_ordinates",
                 "admissible_degrees"):
        function(newton, attr, span(f"newton.{attr}"))
    for attr in ("viable_margin", "widest_window"):
        function(newton, attr, count(f"newton.{attr}"))
    function(valuation, "coefficient_valuations",
             span("valuation.coefficient_valuations"))
    function(valuation, "nu", count("valuation.nu"))
    method(polynomials.GhlParams, "term", count("polynomials.term"))
    function(sieve, "prime_factors",
             lambda fn: t.timed("sieve.prime_factors", fn, keep_span=False))
    method(sieve.SpfTable, "__init__",
           span("sieve.spf_table", size=lambda a, r: a[0].spf.nbytes))
    function(sieve, "prime_flags",
             span("sieve.prime_flags", size=lambda a, r: r.nbytes))
    function(sieve, "shared_table",
             span("sieve.shared_table", probe="sieve.spf_table"))
    for attr in ("gpf_array", "verify_gpf_bound", "exact_p5_pairs",
                 "ap_prime_gaps"):
        function(sieve, attr, span(f"sieve.{attr}"))
    return t
