"""Suite-wide test configuration.

Hypothesis runs derandomized: every property test draws the same
examples on every run, so the suite's wall time — and any failure it
finds — is reproducible instead of depending on the random draw.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
