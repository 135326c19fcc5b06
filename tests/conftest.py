"""One hypothesis profile for the whole suite: the same cases on every run
(derandomize) and no per-example deadline, since timings vary by machine.
Per-test max_examples settings still apply."""

from hypothesis import settings

settings.register_profile("geninv", derandomize=True, deadline=None)
settings.load_profile("geninv")
