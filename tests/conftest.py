"""Shared test configuration.

Every ``hypothesis`` property test runs under one profile: derandomized, so
a run is reproducible; with no deadline, because the first call into a
numpy path can be slow; and with no example database, so no state is kept
between runs.  A test file sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("enspulse", derandomize=True, deadline=None, database=None)
settings.load_profile("enspulse")
