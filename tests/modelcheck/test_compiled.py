"""The compiled directory cells, held to the reference ones by the
model checker's own memo.

Exhaustive exploration of a protocol leaves, in ``_home_memo``, every
``(home-side projection, event)`` pair the search ever executed on the
*reference* controller, with what it produced: the new projection, the
packets sent, or the error raised.  That is the complete reachable
behaviour of ``receive``/``process``/the Table-2 cells/the trap handler
for one block.  This tier rebuilds the same model over the compiled home
(``ProtocolModel(..., compiled=True)``: ``NativeSimulator``,
``SoaDirectory`` columns, an installed ``DirKernel``), replays **every**
key on it, and requires the same triple — so a C cell that diverges from
its Python definition anywhere in the reachable space fails here, with
the projection and the event that expose it.

N=2 runs in tier-1 whenever the extension is built; N=3 (the acceptance
size, minutes) is the ``modelcheck`` CI job's slow lane.
"""

from __future__ import annotations

import os

import pytest

from repro.backend import native
from repro.modelcheck import ProtocolModel, explore

EXHAUSTIVE = os.environ.get("REPRO_MODELCHECK_EXHAUSTIVE") == "1"

pytestmark = pytest.mark.skipif(
    not native.available(), reason="extension not built"
)


def _replay_home_memo(reference: ProtocolModel, compiled: ProtocolModel) -> int:
    """Replay every memoized home step on ``compiled``; returns how many."""
    # The home side never reads cache state: any cache views will do.
    caches = list(reference.initial_state().caches)
    for (home, event), expected in reference._home_memo.items():
        got = compiled._concrete_step(home, caches, 0, event, home_side=True)
        assert got == expected, (home, event)
    return len(reference._home_memo)


def _check(protocol: str, n_caches: int, pointers: int = 1) -> None:
    reference = ProtocolModel(protocol, n_caches, pointers=pointers)
    result = explore(reference, max_states=1_000_000)
    assert result.violation is None and result.complete
    compiled = ProtocolModel(protocol, n_caches, pointers=pointers, compiled=True)
    replayed = _replay_home_memo(reference, compiled)
    assert replayed > 100
    # ... and the replay ran in C: hand-backs are the minority, and only
    # for the reasons this protocol's software path explains
    handed = {r: n for r, n in compiled.dir_kernel.handbacks.items() if n}
    allowed = {"dir_error", "dir_override"}
    if protocol == "limitless":
        allowed |= {"dir_meta", "dir_overflow"}
    assert set(handed) <= allowed, handed
    assert sum(handed.values()) < replayed


@pytest.mark.parametrize("protocol", ["fullmap", "limited", "limitless"])
def test_every_home_step_replays_on_the_compiled_model(protocol):
    _check(protocol, 2)


@pytest.mark.parametrize("pointers", [1, 2])
def test_two_pointer_budgets_at_three_caches_bounded(pointers):
    """A BFS prefix at N=3: the fifo victim choice among several
    candidates, and limitless with a pointer to spare."""
    for protocol in ("limited", "limitless"):
        reference = ProtocolModel(protocol, 3, pointers=pointers)
        assert explore(reference, max_states=4000).violation is None
        compiled = ProtocolModel(protocol, 3, pointers=pointers, compiled=True)
        assert _replay_home_memo(reference, compiled) > 100


@pytest.mark.skipif(not EXHAUSTIVE, reason="set REPRO_MODELCHECK_EXHAUSTIVE=1")
@pytest.mark.parametrize("protocol", ["fullmap", "limited", "limitless"])
def test_every_home_step_replays_at_three_caches(protocol):
    _check(protocol, 3)


@pytest.mark.parametrize("mutant", ["limited_dropinv", "limited_lostack"])
def test_seeded_mutants_stay_caught_on_the_compiled_model(mutant):
    """The mutants override a method a compiled cell folds in, so that
    cell must stay theirs: the planted bug is still found."""
    result = explore(ProtocolModel(mutant, 3, compiled=True), max_states=50_000)
    assert result.violation is not None
    reference = explore(ProtocolModel(mutant, 3), max_states=50_000)
    assert result.violation.kind == reference.violation.kind
    assert result.violation.actions == reference.violation.actions


def test_explore_agrees_on_the_compiled_model():
    """Not just step by step: the whole search visits the same space."""
    for protocol in ("fullmap", "limited", "limitless"):
        reference = explore(ProtocolModel(protocol, 2))
        compiled = explore(ProtocolModel(protocol, 2, compiled=True))
        assert (compiled.states, compiled.transitions, compiled.violation) == (
            reference.states, reference.transitions, reference.violation
        )


@pytest.mark.parametrize("protocol", ["limitless_approx", "trap_always"])
def test_no_compiled_model_for_a_controller_with_its_own_pipeline(protocol):
    with pytest.raises(ValueError, match="no compiled directory kernel"):
        ProtocolModel(protocol, 2, compiled=True)
