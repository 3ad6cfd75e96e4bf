"""Command-line interface.

Subcommands: build (emit coefficients), polygon (Newton polygon data),
certify (factor-degree certificates), sieve (numeric survey queries).
JSON goes to stdout with sorted keys; timing and sieve memory go to
stderr.  Exit codes: 0 success, 1 certify finished with a nonempty
residual, 2 usage or hypothesis errors, 3 internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

from . import certify as certify_mod
from .jsontext import encode, unlimited_int_digits
from .newton import (admissible_degrees, build_polygon, polygon_from_params,
                     polygon_svg, polygon_tsv)
from .polynomials import (GhlParams, InvalidParameters, SeedCoefficients,
                          build_substituted, hermite_polynomial,
                          read_coefficients, write_coefficients)

_ENV_SIEVE_LIMIT = "GHLCERT_SIEVE_LIMIT"
# Larger input is refused before anything is built: memory grows as n^2
# (certify --q 1/3 --n 20000 peaks at 433 MiB), so a huge n would not stop.
MAX_DEGREE = 25_000          # delta * n of one instance; --hermite's degree
MAX_BATCH_DEGREE = 250_000   # delta * n summed over a --batch-n range


def decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1, without the quadratic str(n): 2**(b-1) <=
    n < 2**b puts floor(b*log10(2)) at the count or one below it."""
    digits = int(n.bit_length() * math.log10(2))
    return digits + (n >= 10 ** digits)


def _emit(obj) -> None:
    """Write obj to stdout as json.dumps(obj, sort_keys=True, indent=2) plus
    a newline.  The whole text is built before any of it is written."""
    sys.stdout.write(encode(obj, "\n") + "\n")


def _report_query(report) -> None:
    """Stdout gets the report; stderr gets the query's own time and the
    process's peak resident set so far."""
    _emit(report.to_json_dict())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"query_ms={report.elapsed_ms:.1f} peak_rss_mb={peak_mb:.1f}",
          file=sys.stderr)


def _add_param_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int, help="step of the linear factors")
    sub.add_argument("--u", type=int, help="integer part offset")
    sub.add_argument("--alpha", type=int, help="numerator residue, 1 <= alpha < d")
    sub.add_argument("--q", help="shorthand for u + alpha/d, e.g. -2/3")
    sub.add_argument("--n", type=int, help="degree before substitution")
    sub.add_argument("--delta", type=int, default=None,
                     help="substitution exponent: 1 or d (default 1)")
    sub.add_argument("--seed", choices=("ones", "laguerre"), default=None,
                     help="seed coefficients (default laguerre)")
    sub.add_argument("--seed-file", default=None,
                     help="custom seed: one integer per line, lowest first")


def _refuse_above(cap: int, size: int, what: str) -> None:
    if size > cap:
        raise InvalidParameters(f"{what} is {size:,}, above the cap {cap:,}")


def _params_from_args(args) -> GhlParams:
    if args.n is None:
        raise InvalidParameters("--n is required")
    delta = args.delta
    if args.q is not None:
        try:
            q = Fraction(args.q)
        except ZeroDivisionError:
            raise InvalidParameters(
                f"--q {args.q} has a zero denominator") from None
        params = GhlParams.from_q(q, args.n, delta=1)
        d, u, alpha = params.d, params.u, params.alpha
    else:
        if args.d is None or args.u is None or args.alpha is None:
            raise InvalidParameters("give either --q or all of --d/--u/--alpha")
        d, u, alpha = args.d, args.u, args.alpha
    params = GhlParams(d=d, u=u, alpha=alpha, n=args.n,
                       delta=1 if delta is None else delta)
    _refuse_above(MAX_DEGREE, params.delta * params.n, "degree delta*n")
    return params


def _seed_from_args(args, n: int) -> SeedCoefficients:
    if args.seed_file:
        poly = read_coefficients(args.seed_file)
        return SeedCoefficients(values=tuple(poly.coeffs))
    return SeedCoefficients.of_kind(n, args.seed or "laguerre")


def _cmd_build(args) -> int:
    if args.hermite is not None:
        _refuse_above(MAX_DEGREE, args.hermite, "--hermite")
        poly = hermite_polynomial(args.hermite)
        label = f"hermite degree {args.hermite}"
    else:
        params = _params_from_args(args)
        seed = _seed_from_args(args, params.n)
        poly = build_substituted(params, seed)
        label = (f"d={params.d} u={params.u} alpha={params.alpha} "
                 f"n={params.n} delta={params.delta}")
    if args.out:
        write_coefficients(args.out, poly, header=label)
    else:
        _emit({"degree": poly.degree, "coefficients": list(poly.coeffs),
               "description": label})
    return 0


def _cmd_polygon(args) -> int:
    if args.coeff_file:
        polygon = build_polygon(read_coefficients(args.coeff_file), args.prime)
    else:
        params = _params_from_args(args)
        polygon = polygon_from_params(args.prime, params,
                                      _seed_from_args(args, params.n))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(polygon_svg(polygon))
    if args.tsv:
        if args.tsv == "-":
            sys.stdout.write(polygon_tsv(polygon))
            return 0
        with open(args.tsv, "w") as fh:
            fh.write(polygon_tsv(polygon))
        return 0
    _emit({
        "prime": args.prime,
        "degree": polygon.degree,
        "vertices": [[x, polygon.ordinates[x]] for x in polygon.vertex_xs()],
        "min_slope": str(polygon.min_slope),
        "max_slope": str(polygon.max_slope),
        "admissible_degrees": sorted(admissible_degrees(polygon)),
    })
    return 0


def _parse_batch(spec: str, flag: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise InvalidParameters(f"{flag} takes lo:hi, got {spec!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise InvalidParameters(f"range {spec} is empty: {lo} > {hi}")
    return lo, hi


def _job_count(jobs: int) -> int:
    """The --jobs value to use: at least 1, clamped to the CPU count."""
    if jobs < 1:
        raise InvalidParameters(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _cmd_certify(args) -> int:
    jobs = _job_count(args.jobs)
    if args.batch_n:
        for flag, value in (("--n", args.n), ("--seed-file", args.seed_file)):
            if value is not None:
                raise InvalidParameters(
                    f"{flag} cannot be combined with --batch-n, which "
                    "certifies every n in its range with the --seed kind")
        lo, hi = _parse_batch(args.batch_n, "--batch-n")
        base = _params_from_args(argparse.Namespace(
            d=args.d, u=args.u, alpha=args.alpha, q=args.q, n=lo,
            delta=args.delta))
        _refuse_above(MAX_DEGREE, base.delta * hi, "--batch-n top degree")
        _refuse_above(MAX_BATCH_DEGREE,
                      base.delta * (lo + hi) * (hi - lo + 1) // 2,
                      "--batch-n summed degree")
        kind = args.seed or "laguerre"
        tasks = [(base.d, base.u, base.alpha, n, base.delta, kind)
                 for n in range(lo, hi + 1)]
        certs = certify_mod.batch_certify(tasks, jobs=jobs)
    else:
        params = _params_from_args(args)
        seed = _seed_from_args(args, params.n)
        certs = [certify_mod.full_certify(params, seed)]
    _write_certificates(certs, batch=bool(args.batch_n))
    return 1 if any(cert.residual for cert in certs) else 0


def _write_certificates(certs, batch: bool) -> None:
    """Write the certificates to stdout as json.dumps(..., sort_keys=True,
    indent=2) writes the list of their to_json_dict forms (batch) or the
    one form alone, plus a newline.  Each certificate's text is built
    whole before any of it is written."""
    write = sys.stdout.write
    pad, sep = ("\n  ", "[\n  ") if batch else ("\n", "")
    for cert in certs:
        write(sep + cert.json_text(pad))
        sep = ",\n  "
    write("\n]\n" if batch else "\n")


def _sieve_limit(args) -> int:
    if args.limit is not None:
        return args.limit
    env = os.environ.get(_ENV_SIEVE_LIMIT)
    if env:
        return int(env)
    raise InvalidParameters(
        f"--limit is required (or set {_ENV_SIEVE_LIMIT})")


def _cmd_sieve(args) -> int:
    from . import sieve as sieve_mod  # numpy: loaded for this command only
    jobs = _job_count(args.jobs)
    query = args.query
    if query == "gpf-bound":
        for name in ("d", "k", "bound"):
            if getattr(args, name) is None:
                raise InvalidParameters(f"--{name} is required for gpf-bound")
        flt = sieve_mod.RangeFilter(
            min_exclusive=args.min_exclusive or 0,
            odd_only=bool(args.odd_only),
            not_divisible_by=args.not_divisible_by)
        report = sieve_mod.verify_gpf_bound(
            args.d, args.k, args.bound, _sieve_limit(args), flt, jobs=jobs)
        _report_query(report)
        return 0
    if query == "p5-pairs":
        pairs = sieve_mod.exact_p5_pairs(_sieve_limit(args))
        _emit({"query": "exact-p5-pairs", "limit": _sieve_limit(args),
               "pairs": [list(p) for p in pairs]})
        return 0
    if query == "ap-gaps":
        if args.modulus is None or args.gap_bound is None:
            raise InvalidParameters(
                "--modulus and --gap-bound are required for ap-gaps")
        residues = [int(r) for r in (args.residues or "").split(",") if r]
        if not residues:
            raise InvalidParameters("--residues is required for ap-gaps")
        report = sieve_mod.ap_prime_gaps(
            args.modulus, residues, _sieve_limit(args), args.gap_bound)
        _report_query(report)
        return 0
    if query == "smoothness":
        if args.k is None:
            raise InvalidParameters("--k is required for smoothness")
        if args.pow2:
            bound = sieve_mod.smoothness_bound(args.k, 1)
            _emit({"query": "smoothness", "k": args.k, "variant": "pow2",
                   "bound": bound})
            return 0
        if args.l is None:
            raise InvalidParameters("--l is required for smoothness")
        n_exact, t = sieve_mod.smoothness_bound_exact(
            args.k, args.l, printed_inner_pi=bool(args.printed_inner_pi))
        _emit({"query": "smoothness", "k": args.k, "l": args.l, "T": t,
               "bound": sieve_mod.smoothness_root(n_exact, t),
               "N_digits": decimal_digits(n_exact)})
        return 0
    if query == "rset-mismatch":
        if args.k_range:
            lo, hi = _parse_batch(args.k_range, "--k-range")
        elif args.k is not None:
            lo = hi = args.k
        else:
            raise InvalidParameters("--k or --k-range is required")
        rows = sieve_mod.progression_prime_set_mismatches(lo, hi)
        _emit({"query": "rset-mismatch", "k_range": [lo, hi],
               "mismatches": [list(r) for r in rows]})
        return 0
    raise InvalidParameters(f"unknown sieve query {query!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghlcert",
        description="Factor-degree certificates for integer polynomials "
                    "built from arithmetic-progression coefficient products",
        allow_abbrev=False)  # _apply_config reads only the full --config
    parser.add_argument("--config", default=None,
                        help="JSON file of option defaults (flags win)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_build = subs.add_parser("build", help="emit polynomial coefficients")
    _add_param_options(p_build)
    p_build.add_argument("--hermite", type=int, default=None,
                         help="build the physicists' orthogonal polynomial "
                              "of this degree instead")
    p_build.add_argument("--out", default=None,
                         help="write a coefficient file instead of JSON")
    p_build.set_defaults(func=_cmd_build)

    p_poly = subs.add_parser("polygon", help="Newton polygon of an instance")
    _add_param_options(p_poly)
    p_poly.add_argument("--prime", type=int, required=True)
    p_poly.add_argument("--coeff-file", default=None,
                        help="read the polynomial from a coefficient file")
    p_poly.add_argument("--tsv", default=None,
                        help="write x/y/is_vertex rows to this path ('-' for "
                             "stdout)")
    p_poly.add_argument("--svg", default=None, help="write an SVG plot")
    p_poly.set_defaults(func=_cmd_polygon)

    p_cert = subs.add_parser("certify", help="factor-degree certificate")
    _add_param_options(p_cert)
    p_cert.add_argument("--batch-n", default=None,
                        help="certify n in lo:hi (inclusive) instead of one n")
    p_cert.add_argument("--jobs", type=int, default=1)
    p_cert.set_defaults(func=_cmd_certify)

    p_sieve = subs.add_parser("sieve", help="numeric survey queries")
    p_sieve.add_argument("query", choices=(
        "gpf-bound", "p5-pairs", "ap-gaps", "smoothness", "rset-mismatch"))
    p_sieve.add_argument("--d", type=int)
    p_sieve.add_argument("--k", type=int)
    p_sieve.add_argument("--l", type=int)
    p_sieve.add_argument("--bound", type=int)
    p_sieve.add_argument("--limit", type=int, default=None,
                         help=f"search limit (default ${_ENV_SIEVE_LIMIT})")
    p_sieve.add_argument("--odd-only", action="store_true")
    p_sieve.add_argument("--min-exclusive", type=int, default=None)
    p_sieve.add_argument("--not-divisible-by", type=int, default=None)
    p_sieve.add_argument("--modulus", type=int)
    p_sieve.add_argument("--residues", default=None,
                         help="comma-separated residue classes")
    p_sieve.add_argument("--gap-bound", type=int)
    p_sieve.add_argument("--pow2", action="store_true",
                         help="power-of-two smoothness variant")
    p_sieve.add_argument("--printed-inner-pi", action="store_true")
    p_sieve.add_argument("--k-range", default=None, help="lo:hi")
    p_sieve.add_argument("--jobs", type=int, default=1)
    p_sieve.set_defaults(func=_cmd_sieve)
    return parser


def _apply_config(argv) -> list[str]:
    """Splice --config values (given as --config PATH or --config=PATH) in
    as if they were flags given first, so that explicit flags still win."""
    argv = list(argv)
    for idx, tok in enumerate(argv):
        if tok == "--config" and idx + 1 < len(argv):
            path, head = argv[idx + 1], argv[:idx] + argv[idx + 2:]
            break
        if tok.startswith("--config="):
            path, head = tok[len("--config="):], argv[:idx] + argv[idx + 1:]
            break
    else:
        return argv
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path} holds a JSON {type(config).__name__}, "
                         "not an object")
    injected: list[str] = []
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    # flags go right after the subcommand name (the first non-flag token)
    for pos, tok in enumerate(head):
        if not tok.startswith("-"):
            return head[:pos + 1] + injected + head[pos + 1:]
    return head + injected


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: bad --config: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        # big coefficients and seeds pass CPython's 4,300-digit cap on
        # int <-> str conversion, both when read and when written
        with unlimited_int_digits():
            code = args.func(args)
    except (InvalidParameters, certify_mod.HypothesisViolation,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except certify_mod.CertificationInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed = (time.perf_counter() - t0) * 1000.0
    print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
