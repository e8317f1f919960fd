"""Suite-wide test configuration.

Hypothesis runs derandomized: every property test draws the same
examples on every run, so the suite's wall time — and any failure it
finds — is reproducible instead of depending on the random draw.

``HOME`` points at a temporary directory for the whole session, so a
test that omits ``--cache-dir`` (and every interpreter a test starts)
writes its snapshot files there, never into the user's
``~/.cache/repro``, and no test is served what an earlier run left.
"""

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session", autouse=True)
def hermetic_home(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("HOME", str(tmp_path_factory.mktemp("home")))
        yield
