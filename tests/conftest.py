"""Hypothesis profiles. Tier-1 runs under hypothesis's default profile; the
mutant runner (``tests/mutants.py``) selects ``mutants`` with
``--hypothesis-profile=mutants``: the same examples, without shrinking a
failing one, since a mutant is killed by any failure."""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
