import random

import pytest

from clawsplit import IntervalFamily

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance_log():
    """Tests append 'criterion N: PASS/FAIL ...' lines for the final summary."""
    return _acceptance_lines.append


@pytest.fixture(scope="session")
def tie_heavy_families():
    """2,000 seeded families of up to 9 members where about a third of the
    members repeat a pair, and endpoints, all in [0, 8], often coincide or
    touch."""
    rng = random.Random(18)
    out = []
    for _ in range(2000):
        n = rng.randint(0, 9)
        pairs = [((lo := rng.randint(0, 5)), lo + rng.randint(1, 3)) for _ in range(n - n // 3)]
        pairs += [rng.choice(pairs) for _ in range(n // 3)]
        rng.shuffle(pairs)
        out.append(IntervalFamily.from_pairs(pairs))
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_acceptance_lines):
        terminalreporter.write_line(line)
