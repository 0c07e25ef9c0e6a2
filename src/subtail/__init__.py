"""subtail: subordinator tail probabilities and time-fractional heat kernel bounds.

The package cross-validates three independent routes to the same quantities:

* closed-form estimate families for tail probabilities P(S_r >= t) and for
  fundamental solutions p(t,x,y) of generalized time-fractional equations;
* deterministic quadrature built on the Laplace exponent phi, the
  concentration function H and the inverse subordinator E_t;
* Monte Carlo simulation of the subordinator S (compound Poisson with
  small-jump compensation, plus an exact stable sampler).

Two-sided comparability ("the ratio stays in a bounded band") is the
verification currency throughout; see :mod:`subtail.comparability`.
"""

__version__ = "0.1.0"
