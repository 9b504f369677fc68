"""Deep schedules: the walker's depth is bounded only by ``max_depth``.

A single send-to-all process with a 650-message script has schedules of
1300 decisions (a broadcast start and a self-reception per message).
The walker keeps its search state on an explicit frame stack rather
than the interpreter's call stack, so such a schedule is explored like
any other — on every sequential variant, and across a checkpoint taken
more than a thousand frames deep.

The schedule tree of this configuration is enormous (every reception
can be delayed past later broadcasts), so a two-terminal budget keeps
each run to the first deep descent plus one backtrack.
"""

import os

import pytest

from repro.broadcasts import SendToAllBroadcast
from repro.runtime import Simulator
from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.explorer import explore_schedules, spec_property
from repro.specs import SendToAllSpec

from .test_explorer_checkpoint import Countdown, assert_identical

MESSAGES = 650
DECISIONS = 2 * MESSAGES


def deep_config():
    return (
        Simulator(1, lambda pid, n: SendToAllBroadcast(pid, n)),
        {0: [f"m{i}" for i in range(MESSAGES)]},
        spec_property(SendToAllSpec()),
    )


def explore_deep(**kwargs):
    simulator, scripts, prop = deep_config()
    return explore_schedules(
        simulator,
        scripts,
        prop,
        max_schedules=2,
        max_depth=100_000,
        **kwargs,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"engine": "incremental"},
        {"engine": "dedup"},
        {"engine": "incremental", "sleep_sets": True},
        {"engine": "dedup", "symmetry": "rename"},
    ],
    ids=["incremental", "dedup", "incremental-sleep", "dedup-rename"],
)
def test_deep_schedule_is_explored(kwargs):
    result = explore_deep(**kwargs)
    assert result.max_depth_seen == DECISIONS
    assert result.terminal_schedules == 2
    assert result.schedules_explored == DECISIONS + 3
    assert not result.violations
    assert not result.exhausted  # the two-terminal budget cut it


def test_deep_checkpoint_resumes_identically(tmp_path):
    kwargs = {"sleep_sets": True}
    reference = explore_deep(**kwargs)
    path = os.path.join(tmp_path, "deep.ckpt")
    cut = 1100
    first = explore_deep(
        cancel=Countdown(cut),
        checkpoint_to=path,
        checkpoint_every=250,
        **kwargs,
    )
    assert first.interrupted
    # the first descent is one branch per level, so the cut node sits
    # at depth ``cut`` below a stack of that many frames
    assert len(read_checkpoint(path)["frames"]) == cut > 1000
    resumed = explore_deep(resume_from=path, **kwargs)
    assert_identical(resumed, reference)
