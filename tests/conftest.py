"""Hypothesis profiles for the test suite.

`ci` runs the same examples under the same deadlines as the default
profile but skips the shrink phase: a failing property test reports the
first failing example it finds instead of shrinking it for minutes.
Select it with `pytest --hypothesis-profile=ci`.
"""

from hypothesis import Phase, settings

settings.register_profile("ci", phases=[p for p in Phase if p is not Phase.shrink])
