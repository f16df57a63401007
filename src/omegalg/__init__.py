"""Iteration algebra with star, plus and omega.

Carriers and law suites (:mod:`omegalg.core`, :mod:`omegalg.instances`),
formal-sum extensions (:mod:`omegalg.extension`), matrix calculus
(:mod:`omegalg.matrices`), series and omega words (:mod:`omegalg.series`),
averaging/discounting weight structures (:mod:`omegalg.valuation`), weighted
Buchi automata (:mod:`omegalg.automata`), and the expression layer
(:mod:`omegalg.ratexpr`).

Importing the package loads none of these: each submodule loads on first
use, and the names in ``__all__`` load theirs when first read (PEP 562), so
a command-line call pays only for the modules it runs.
"""

import importlib

# each exported name -> the submodule that defines it
_HOMES = {
    "HemimodulePair": "core", "LawReport": "core", "OmegaWord": "series",
    "Series": "series", "WeightedSeq": "valuation", "bounded_eq": "series",
    "conway_hemiring_laws": "core", "conway_semiring_laws": "core",
    "hemimodule_pair_laws": "core", "iterative_fixed_point_check": "core",
    "language_instance": "series", "make_instance": "instances",
    "make_valuation_instance": "valuation", "parse_word": "series",
    "plus_from_star": "core", "self_pair": "core", "star_from_plus": "core",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
