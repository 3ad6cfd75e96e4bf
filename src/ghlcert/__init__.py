"""Factor-degree certificates for integer polynomials built from
arithmetic-progression coefficient products, with the Newton-polygon and
sieve machinery behind them.

The package root exports no names: import from the submodules
(ghlcert.certify, ghlcert.criteria, ghlcert.newton, ghlcert.sieve, ...)."""
