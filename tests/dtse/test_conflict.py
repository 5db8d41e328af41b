"""The conflict graph's port sizing: the co-fire clique search, its
process-wide memo, and the hash-seed independence of the graph's
reported numbers."""

import itertools
import os
import pathlib
import subprocess
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.dtse.scbd import clear_schedule_memo, cofire_memo_info
from repro.dtse.scbd.conflict import _cofire_clique, _CofireMemo, max_cofire
from repro.ir.loops import are_exclusive

#: Untagged, flat, nested and doubly nested exclusive-class tags.
TAGS = ("", "H", "V", "D", "D:0", "D:1", "D:0:x", "D:1:y", "H:0")


def _brute_force(tags):
    """Largest subset whose members pairwise co-fire, by enumeration."""
    for size in range(len(tags), 0, -1):
        for subset in itertools.combinations(tags, size):
            if all(
                not are_exclusive(a or None, b or None)
                for a, b in itertools.combinations(subset, 2)
            ):
                return size
    return 0


@given(st.lists(st.sampled_from(TAGS), max_size=9))
@settings(deadline=None, max_examples=300)
def test_max_cofire_matches_subset_enumeration(tags):
    clear_schedule_memo()
    assert max_cofire(tags) == _brute_force(tags)
    assert max_cofire(tags) == _brute_force(tags)  # now a memo hit


@given(st.lists(st.sampled_from(TAGS), max_size=6))
@settings(deadline=None, max_examples=150)
def test_clique_search_does_not_depend_on_input_order(tags):
    """What keys the memo on the sorted tuple: every permutation of the
    tags gives the same clique size."""
    expected = _brute_force(tags)
    for permutation in set(itertools.permutations(tags)):
        assert _cofire_clique(permutation) == expected


def test_clearing_the_schedule_memo_clears_the_cofire_memo():
    clear_schedule_memo()
    tags = ["D:0", "D", "", "H"]
    assert max_cofire(tags) == 3
    assert cofire_memo_info()[:3] == (0, 1, 1)
    assert max_cofire(list(reversed(tags))) == 3
    assert cofire_memo_info()[:3] == (1, 1, 1)
    clear_schedule_memo()
    assert cofire_memo_info()[:3] == (0, 0, 0)
    assert max_cofire(tags) == 3
    assert cofire_memo_info()[:3] == (0, 1, 1)  # recomputed, not a hit


def test_a_full_memo_starts_over():
    memo = _CofireMemo(max_entries=2)
    for tags in (("", "H"), ("H", "V"), ("D", "D:0")):
        memo.lookup(tags)
    assert memo.info().entries == 1
    assert memo.lookup(("D", "D:0")) == 2
    assert memo.info().hits == 1


def test_memo_is_correct_under_concurrent_lookups():
    """More threads than cores share a memo small enough to be emptied
    over and over, with a tiny switch interval: every answer is still
    exact, and the memo outgrows its bound by at most one entry per
    racing thread."""
    memo = _CofireMemo(max_entries=8)
    cases = [
        tuple(sorted(tags))
        for tags in itertools.combinations_with_replacement(TAGS[:6], 3)
    ]
    expected = {tags: _brute_force(tags) for tags in cases}
    wrong = []
    sizes = []

    def work(offset):
        for k in range(300):
            tags = cases[(offset + k) % len(cases)]
            if memo.lookup(tags) != expected[tags]:
                wrong.append(tags)
            sizes.append(memo.info().entries)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert max(sizes) <= 8 + len(threads)


#: Prints the clique lower bound of one BTPC variant at every budget.
_CLIQUE_BOUND_SCRIPT = """
from repro.dtse import make_cap_fn, make_weight_fn
from repro.dtse.scbd import distribute
from repro.explore import DesignSpace
space = DesignSpace.for_app("btpc")
program = space.program("No structuring")
library = space.libraries["default"]
bounds = []
for fraction in space.budget_fractions:
    distribution = distribute(
        program,
        space.effective_budget(fraction),
        make_weight_fn(program, library),
        make_cap_fn(program, library),
    )
    bounds.append(distribution.conflict_graph.clique_lower_bound())
print(bounds)
"""


def test_clique_lower_bound_does_not_depend_on_the_hash_seed():
    """Groups of equal degree are tried in name order, not in the
    iteration order of a string set."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", _CLIQUE_BOUND_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
