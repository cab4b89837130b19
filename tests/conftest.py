import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import scucnr.orchestrator
from scucnr.fixtures import (corridor4_high, corridor4_low,
                             corridor4_stranded, star4, triangle3,
                             triangle3_tight)
from scucnr.subproblems import SLACK_TOLERANCE


@pytest.fixture
def tri3():
    return triangle3()


@pytest.fixture
def tri3_tight():
    return triangle3_tight()


@pytest.fixture
def star():
    return star4()


@pytest.fixture
def c4_high():
    return corridor4_high()


@pytest.fixture
def c4_low():
    return corridor4_low()


@pytest.fixture
def c4_stranded():
    return corridor4_stranded()


def fixture_family():
    """Feasible fixtures used by cross-method equivalence checks."""
    return {
        "triangle3": triangle3(),
        "triangle3_T2": triangle3((80.0, 60.0)),
        "triangle3_tight": triangle3_tight(),
        "star4": star4(),
        "corridor4_low": corridor4_low(),
    }


@contextmanager
def recorded_screens():
    """Within the block, record each schedule the decomposed loop screens:
    a list of ``(case, sens, schedule, dropped)``, ``dropped`` the pairs
    the screen leaves out of that iteration's examination."""
    screens = []
    run_csps = scucnr.orchestrator.run_csps

    def recording(case, sens, muc, candidates):
        result = run_csps(case, sens, muc, candidates)
        critical = set(result.critical)
        screens.append((case, sens, muc, [p for p in candidates if p not in critical]))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scucnr.orchestrator, "run_csps", recording)
        yield screens


def assert_dropped_pairs_survivable(screens, workers=1) -> int:
    """Decide every dropped pair of ``screens`` with the loop's own pair
    routine, no switch allowed, and assert each is feasible with slack at
    most ``SLACK_TOLERANCE``; returns the number of pairs decided."""
    decided = 0
    for case, sens, muc, dropped in screens:
        outcomes, _ = scucnr.orchestrator._examine(case, sens, muc, dropped, 0, workers)
        for out in outcomes:
            assert out.status == "feasible" and out.slack <= SLACK_TOLERANCE, (
                "screen dropped an unsurvivable pair", out)
        decided += len(outcomes)
    return decided
