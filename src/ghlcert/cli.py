"""Command-line interface.

Subcommands: build (emit coefficients), polygon (Newton polygon data),
certify (factor-degree certificates), sieve (numeric survey queries).
JSON goes to stdout with sorted keys; timing and sieve memory go to
stderr.  Exit codes: 0 success, 1 certify finished with a nonempty
residual, 2 usage or hypothesis errors, 3 internal errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import sys
import time
from fractions import Fraction

from . import certify as certify_mod
from .jsontext import encode, unlimited_int_digits
from .newton import (admissible_degrees, build_polygon, degrees_of,
                     polygon_from_params, polygon_svg, polygon_tsv)
from .polynomials import (GhlParams, InvalidParameters, SeedCoefficients,
                          build_substituted, hermite_polynomial,
                          read_coefficients, write_coefficients)
from .valuation import PRIMALITY_LIMIT

# Larger input is refused before anything is built: memory grows as n^2
# (certify --q 1/3 --n 20000 peaks at 433 MiB), so a huge n would not stop.
MAX_DEGREE = 25_000          # delta * n of one instance; --hermite's degree
MAX_BATCH_DEGREE = 250_000   # delta * n summed over a --batch-n range
REPORT_CHUNK = 4096          # sieve report exceptions per write to stdout
# certify factorises only the top linear factor and n; is_prime decides only
# below valuation.PRIMALITY_LIMIT: a top linear factor not below it is refused


def decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1, without the quadratic str(n): 2**(b-1) <=
    n < 2**b puts floor(b*log10(2)) at the count or one below it."""
    digits = int(n.bit_length() * math.log10(2))
    return digits + (n >= 10 ** digits)


def _emit(obj) -> None:
    """Write obj to stdout as json.dumps(obj, sort_keys=True, indent=2) plus
    a newline.  The whole text is built before any of it is written."""
    sys.stdout.write(encode(obj, "\n"))
    sys.stdout.write("\n")


def _report_query(report) -> None:
    """Stdout gets the report as report.json_chunks writes it, its
    exceptions REPORT_CHUNK at a time, plus a newline; stderr gets the
    query's own time and the process's peak resident set so far."""
    sys.stdout.writelines(report.json_chunks(REPORT_CHUNK))
    sys.stdout.write("\n")
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


# the flags _add_param_options adds: build --hermite and polygon --coeff-file
# read none of them
INSTANCE_FLAGS = ("--d", "--u", "--alpha", "--q", "--n", "--delta", "--seed",
                  "--seed-file")


def _given(args, flag: str) -> bool:
    """Given, as a flag or in --config: neither None nor a switch left off."""
    value = getattr(args, flag[2:].replace("-", "_"))
    return value is not None and value is not False


def _refuse_combined(args, flag: str, *others: str) -> None:
    """Refuse flag given with any of others: the two would give the same
    thing, and one of them would be ignored."""
    clash = [other for other in others if _given(args, other)]
    if clash and _given(args, flag):
        raise InvalidParameters(
            f"{flag} cannot be combined with {', '.join(clash)}")


def _refuse_above(cap: int, size: int, what: str) -> None:
    if size > cap:
        raise InvalidParameters(f"{what} is {size:,}, above the cap {cap:,}")


def _params_from_args(args, n: int | None) -> GhlParams:
    """The instance of --q or --d/--u/--alpha, and --delta, at n."""
    if n is None:
        raise InvalidParameters("--n is required")
    _refuse_combined(args, "--q", "--d", "--u", "--alpha")
    if args.q is not None:
        try:
            q = Fraction(args.q)
        except ZeroDivisionError:
            raise InvalidParameters(
                f"--q {args.q} has a zero denominator") from None
        params = GhlParams.from_q(q, n, delta=1)
        d, u, alpha = params.d, params.u, params.alpha
    else:
        if None in (args.d, args.u, args.alpha):
            raise InvalidParameters("give either --q or all of --d/--u/--alpha")
        d, u, alpha = args.d, args.u, args.alpha
    params = GhlParams(d=d, u=u, alpha=alpha, n=n,
                       delta=1 if args.delta is None else args.delta)
    _refuse_above(MAX_DEGREE, params.delta * params.n, "degree delta*n")
    return params


def _seed_from_args(args, n: int) -> SeedCoefficients:
    _refuse_combined(args, "--seed-file", "--seed")
    if args.seed_file is not None:
        poly = read_coefficients(args.seed_file)
        return SeedCoefficients(values=tuple(poly.coeffs))
    return SeedCoefficients.of_kind(n, args.seed or "laguerre")


def _cmd_build(args) -> int:
    _refuse_combined(args, "--hermite", *INSTANCE_FLAGS)
    if args.hermite is not None:
        _refuse_above(MAX_DEGREE, args.hermite, "--hermite")
        poly = hermite_polynomial(args.hermite)
        label = f"hermite degree {args.hermite}"
    else:
        params = _params_from_args(args, args.n)
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
    _refuse_combined(args, "--coeff-file", *INSTANCE_FLAGS)
    if args.coeff_file is not None:
        polygon = build_polygon(read_coefficients(args.coeff_file), args.prime)
    else:
        params = _params_from_args(args, args.n)
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
        "admissible_degrees": list(degrees_of(admissible_degrees(polygon))),
    })
    return 0


def _parse_batch(spec: str, flag: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise InvalidParameters(f"{flag} takes lo:hi, got {spec!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InvalidParameters(
            f"{flag} takes integers lo:hi, got {spec!r}") from None
    if lo > hi:
        raise InvalidParameters(f"range {spec} is empty: {lo} > {hi}")
    return lo, hi


def _cmd_certify(args) -> int:
    """Certify every n in --batch-n's lo:hi, or lo = hi = --n."""
    # a batch certifies every n in its range with the --seed kind
    _refuse_combined(args, "--batch-n", "--n", "--seed-file")
    batch = args.batch_n is not None
    if batch:
        lo, hi = _parse_batch(args.batch_n, "--batch-n")
    else:
        lo = hi = args.n
    base = _params_from_args(args, lo)
    # with lo = hi neither degree cap can fire: base has delta*lo capped
    _refuse_above(MAX_DEGREE, base.delta * hi, "--batch-n top degree")
    _refuse_above(MAX_BATCH_DEGREE,
                  base.delta * (lo + hi) * (hi - lo + 1) // 2,
                  "--batch-n summed degree")
    _refuse_above(PRIMALITY_LIMIT - 1, base.term(hi),
                  "--batch-n top linear factor" if batch
                  else "top linear factor")
    certs = [certify_mod.full_certify(
                 GhlParams(d=base.d, u=base.u, alpha=base.alpha, n=n,
                           delta=base.delta), _seed_from_args(args, n))
             for n in range(lo, hi + 1)]
    _write_certificates(certs, batch)
    return 1 if any(cert.residual for cert in certs) else 0


def _write_certificates(certs, batch: bool) -> None:
    """Write the certificates to stdout as json.dumps(..., sort_keys=True,
    indent=2) writes their list (batch) or the one alone, plus a newline,
    each from its json_pieces.  Each certificate's pieces are all built
    before the first of them is written."""
    out = sys.stdout
    pad, sep = ("\n  ", "[\n  ") if batch else ("\n", "")
    for cert in certs:
        out.write(sep)
        out.writelines(cert.json_pieces(pad))
        sep = ",\n  "
    out.write("\n]\n" if batch else "\n")


# each sieve query's options: those it requires, then those it may read;
# any other option given is refused
SIEVE_OPTIONS = {
    "gpf-bound": ("--d --k --bound --limit",
                  "--odd-only --min-exclusive --not-divisible-by"),
    "p5-pairs": ("--limit", ""),
    "ap-gaps": ("--modulus --residues --limit --gap-bound", ""),
    "smoothness": ("--k", "--l --pow2 --printed-inner-pi"),
    "rset-mismatch": ("", "--k --k-range"),
}


def _cmd_sieve(args) -> int:
    query = args.query
    required, optional = (flags.split() for flags in SIEVE_OPTIONS[query])
    unread = sorted({flag for flags in SIEVE_OPTIONS.values()
                     for flag in " ".join(flags).split()
                     if _given(args, flag)} - {*required, *optional})
    if unread:
        raise InvalidParameters(
            f"sieve {query} cannot be combined with {', '.join(unread)}")
    for flag in required:
        if not _given(args, flag):
            raise InvalidParameters(f"{flag} is required")
    from . import sieve as sieve_mod  # numpy: loaded for this command only
    if query == "gpf-bound":
        # RangeFilter tests the divisor for truth: a 0 would drop the filter
        if args.not_divisible_by is not None and args.not_divisible_by < 1:
            raise InvalidParameters("--not-divisible-by must be at least 1, "
                                    f"got {args.not_divisible_by}")
        flt = sieve_mod.RangeFilter(
            min_exclusive=args.min_exclusive or 0,
            odd_only=bool(args.odd_only),
            not_divisible_by=args.not_divisible_by)
        report = sieve_mod.verify_gpf_bound(
            args.d, args.k, args.bound, args.limit, flt)
        _report_query(report)
        return 0
    if query == "p5-pairs":
        pairs = sieve_mod.exact_p5_pairs(args.limit)
        _emit({"query": "exact-p5-pairs", "limit": args.limit,
               "pairs": [list(p) for p in pairs]})
        return 0
    if query == "ap-gaps":
        try:
            residues = [int(r) for r in args.residues.split(",") if r]
        except ValueError:
            residues = []
        if not residues:
            raise InvalidParameters("--residues takes comma-separated "
                                    f"integers, got {args.residues!r}")
        report = sieve_mod.ap_prime_gaps(
            args.modulus, residues, args.limit, args.gap_bound)
        _report_query(report)
        return 0
    if query == "smoothness":
        _refuse_combined(args, "--pow2", "--l", "--printed-inner-pi")
        if args.pow2:
            bound = sieve_mod.smoothness_bound(args.k, 1)
            _emit({"query": "smoothness", "k": args.k, "variant": "pow2",
                   "bound": bound})
            return 0
        if args.l is None:
            raise InvalidParameters("--l is required")
        n_exact, t = sieve_mod.smoothness_bound_exact(
            args.k, args.l, printed_inner_pi=bool(args.printed_inner_pi))
        _emit({"query": "smoothness", "k": args.k, "l": args.l, "T": t,
               "bound": sieve_mod.smoothness_root(n_exact, t),
               "N_digits": decimal_digits(n_exact)})
        return 0
    if query == "rset-mismatch":
        _refuse_combined(args, "--k-range", "--k")
        if args.k_range is not None:
            lo, hi = _parse_batch(args.k_range, "--k-range")
        elif args.k is not None:
            lo = hi = args.k
        else:
            raise InvalidParameters("--k or --k-range is required")
        rows = sieve_mod.progression_prime_set_mismatches(lo, hi)
        _emit({"query": "rset-mismatch", "k_range": [lo, hi],
               "mismatches": [list(r) for r in rows]})
        return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process: callers must treat it as read-only.
    Each parse_args call returns a fresh Namespace and leaves the parser
    as it was, so main() reuses it from one command to the next."""
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
    p_cert.set_defaults(func=_cmd_certify)

    p_sieve = subs.add_parser("sieve", help="numeric survey queries")
    p_sieve.add_argument("query", choices=tuple(SIEVE_OPTIONS))
    p_sieve.add_argument("--d", type=int)
    p_sieve.add_argument("--k", type=int)
    p_sieve.add_argument("--l", type=int)
    p_sieve.add_argument("--bound", type=int)
    p_sieve.add_argument("--limit", type=int, default=None,
                         help="search limit")
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
    p_sieve.set_defaults(func=_cmd_sieve)
    return parser


def _apply_config(argv) -> list[str]:
    """Splice --config values (given as --config PATH or --config=PATH) in
    as if they were flags given first, so that explicit flags still win.
    A second --config is refused before any file is read."""
    argv = list(argv)
    given = [idx for idx, tok in enumerate(argv)
             if tok == "--config" or tok.startswith("--config=")]
    if len(given) > 1:
        raise ValueError("--config given more than once")
    if not given:
        return argv
    idx = given[0]
    if argv[idx] != "--config":
        path, head = argv[idx][len("--config="):], argv[:idx] + argv[idx + 1:]
    elif idx + 1 < len(argv):
        path, head = argv[idx + 1], argv[:idx] + argv[idx + 2:]
    else:
        raise ValueError("--config needs a PATH")
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
        else:  # one token, so a value such as -2/3 is not read as a flag
            injected.append(f"{flag}={value}")
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
    except (ValueError, OSError) as exc:  # usage errors are ValueErrors
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
