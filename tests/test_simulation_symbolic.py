"""Tests for symbolic cache states (Section 5.2)."""

import pytest

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.polyhedral import ScopBuilder
from repro.simulation.symbolic import (
    SymbolicCache,
    SymbolicHierarchy,
    evaluate_symbol,
    fingerprint,
)


def make_scan_scop(n=64):
    b = ScopBuilder("scan")
    A = b.array("A", (n,))
    with b.loop("i", 0, n):
        b.read(A, b.i)
    return b.build()


def drive(scop, target, block_size):
    """Feed every access of the SCoP through a symbolic target."""
    loop = scop.roots[0]
    node = loop.children[0]
    lo, hi = loop.bounds_at(())
    hits = []
    for i in range(lo, hi + 1):
        block = node.addr_at((i,)) // block_size
        hits.append(target.access(block, node.is_write, (node, (i,))))
    return hits


def test_symbolic_matches_concrete_classification():
    """SymClCache == ClCache on the concretised state (Eq. 12)."""
    scop = make_scan_scop()
    cfg = CacheConfig(256, 2, 16, "lru")
    symbolic = SymbolicCache(cfg)
    hits_symbolic = drive(scop, symbolic, 16)

    concrete = Cache(cfg)
    node = scop.roots[0].children[0]
    hits_concrete = [concrete.access(node.addr_at((i,)) // 16)
                     for i in range(64)]
    assert hits_symbolic == hits_concrete
    assert symbolic.misses == concrete.misses


def test_concretize_matches_blocks():
    """gamma maps each stored symbol back to its concrete block."""
    scop = make_scan_scop()
    cfg = CacheConfig(256, 2, 16, "lru")
    symbolic = SymbolicCache(cfg)
    node = scop.roots[0].children[0]
    for i in range(10):
        block = node.addr_at((i,)) // 16
        symbolic.access(block, False, (node, (i,)))
    contents = symbolic.concretize(1, (9,))
    for set_index, row in enumerate(contents):
        for line, value in enumerate(row):
            stored = symbolic.sets[set_index].lines[line]
            if stored is not None:
                # Symbols were stored at their own access iteration, and
                # concretize rebases the own coordinate; entries written
                # at iteration i rebased to 9 shift accordingly.
                assert value is not None


def test_evaluate_symbol_rebase():
    scop = make_scan_scop()
    node = scop.roots[0].children[0]
    sym = (node, (8,))
    # At iteration 8 the symbol denotes block of A[8]; rebased to
    # iteration 12 it denotes block of A[12].
    b8 = evaluate_symbol(sym, 1, (8,), (8,), 16)
    b12 = evaluate_symbol(sym, 1, (8,), (12,), 16)
    assert b8 == node.addr_at((8,)) // 16
    assert b12 == node.addr_at((12,)) // 16


def test_snapshot_keys_detect_periodicity():
    """Scanning an array yields equal snapshot keys one block period
    apart (the symbolic equivalence the warping algorithm hashes for)."""
    scop = make_scan_scop(n=64)
    cfg = CacheConfig(128, 2, 16, "lru")  # 4 sets; 2 doubles per block
    symbolic = SymbolicCache(cfg)
    node = scop.roots[0].children[0]
    keys = {}
    period = (cfg.num_sets * cfg.block_size) // 8  # iterations per lap
    matches = []
    for i in range(64):
        key = symbolic.snapshot_key(1, (i,))
        if key in keys:
            matches.append((keys[key], i))
        keys[key] = i
        block = node.addr_at((i,)) // 16
        symbolic.access(block, False, (node, (i,)))
    assert matches, "periodic scan must produce symbolic matches"
    # After warm-up, matches recur with the full-cache period.
    deltas = {b - a for a, b in matches if a >= period}
    assert deltas and all(d % 2 == 0 for d in deltas)


def test_apply_rotation_equals_resimulation():
    """Warping the symbolic state must equal simulating the skipped
    accesses: pi^n applied to the state == state after n more periods."""
    scop = make_scan_scop(n=64)
    cfg = CacheConfig(128, 2, 16, "lru")
    node = scop.roots[0].children[0]

    def fresh(upto):
        target = SymbolicCache(cfg)
        for i in range(upto):
            block = node.addr_at((i,)) // 16
            target.access(block, False, (node, (i,)))
        return target

    period = 8  # 4 sets * 16B / 8B per element
    warped = fresh(24)
    # One period of the scan shifts every block by 4 (= 8 iters * 8B / 16B
    # block) ... blocks advance by 4, sets rotate by 4 mod 4 = 0.
    rotation = (8 * 8 // 16) % cfg.num_sets
    warped.apply_rotation(rotation, (period,), 2)
    reference = fresh(24 + 2 * period)
    assert [s.lines for s in warped.sets] == \
        [s.lines for s in reference.sets]
    assert [s.policy_state for s in warped.sets] == \
        [s.policy_state for s in reference.sets]


def test_apply_rotation_rejects_unaligned_shift():
    scop = make_scan_scop()
    cfg = CacheConfig(128, 2, 16, "lru")
    symbolic = SymbolicCache(cfg)
    node = scop.roots[0].children[0]
    symbolic.access(0, False, (node, (0,)))
    with pytest.raises(ValueError):
        symbolic.apply_rotation(0, (1,), 1)  # 8-byte shift, 16B blocks


def test_hierarchy_cascades_misses_only():
    cfg = HierarchyConfig(CacheConfig(128, 2, 16), CacheConfig(512, 2, 16))
    hier = SymbolicHierarchy(cfg)
    scop = make_scan_scop(16)
    node = scop.roots[0].children[0]
    for i in range(16):
        block = node.addr_at((i,)) // 16
        hier.access(block, False, (node, (i,)))
    # 8 blocks: L1 sees 16 accesses, L2 only the 8 misses.
    assert hier.l1.hits + hier.l1.misses == 16
    assert hier.l2.hits + hier.l2.misses == hier.l1.misses
    assert len(hier.levels) == 2


def test_reset():
    cfg = CacheConfig(128, 2, 16, "lru")
    symbolic = SymbolicCache(cfg)
    scop = make_scan_scop(8)
    node = scop.roots[0].children[0]
    symbolic.access(3, False, (node, (0,)))
    symbolic.reset()
    assert symbolic.misses == 0
    assert all(b is None for s in symbolic.sets for b in s.lines)


def _symbols(set_state):
    return [set_state.symbol(line) for line in range(set_state.assoc)]


def test_clone_keeps_the_symbolic_types():
    cfg = HierarchyConfig(CacheConfig(64, 2, 16), CacheConfig(128, 2, 16))
    hier = SymbolicHierarchy(cfg)
    node = make_scan_scop(8).roots[0].children[0]
    hier.access(3, False, (node, (0,)))         # L1 set 1 of 2
    syms = _symbols(hier.l1.sets[1])
    assert (node, (0,)) in syms
    copy = hier.clone()
    assert type(copy) is SymbolicHierarchy
    assert all(type(level) is SymbolicCache for level in copy.levels)
    assert _symbols(copy.l1.sets[1]) == syms
    copy.access(5, False, (node, (1,)))
    assert _symbols(hier.l1.sets[1]) == syms    # the copy is deep
    shifted = hier.apply_bijection(lambda block: block + 1)
    assert type(shifted) is SymbolicHierarchy
    assert type(shifted.l1) is SymbolicCache
    assert 4 in shifted.l1.sets[0].lines        # set 1 moved to set 0
    assert _symbols(shifted.l1.sets[0]) == syms  # symbols ride along
    assert shifted.l1.mru_set == 0


# -- two-stage match detection -----------------------------------------------------


def test_fingerprint_tells_nodes_apart_not_points():
    """The fingerprint (per set, a hash of the policy state and each
    way's node, in rotation order) is only a necessary condition: the
    same blocks filled by another access node leave every policy state
    alike but give another fingerprint, while the same nodes at shifted
    points give the same fingerprint and another exact key."""
    cfg = CacheConfig(128, 2, 16, "lru")
    first, second, shifted = (SymbolicCache(cfg) for _ in range(3))
    node_a = make_scan_scop().roots[0].children[0]
    node_b = make_scan_scop().roots[0].children[0]
    for i in range(12):
        block = node_a.addr_at((i,)) // 16
        first.access(block, False, (node_a, (i,)))
        second.access(block, False, (node_b, (i,)))
        shifted.access(block, False, (node_a, (i + 1,)))
    for other in (second, shifted):
        assert [s.lines for s in other.sets] == [s.lines for s in first.sets]
        assert [s.policy_state for s in other.sets] == \
            [s.policy_state for s in first.sets]
    assert fingerprint(first.snapshots()) != fingerprint(second.snapshots())
    assert fingerprint(first.snapshots()) == fingerprint(shifted.snapshots())
    key = first.snapshot_key(1, (12,))
    assert shifted.snapshot_key(1, (12,)) != key
    # Re-based onto the next iteration, the shifted state is the same.
    assert shifted.snapshot_key(1, (13,)) == key


def test_rotated_image_has_the_same_exact_key():
    """A state and its image one period (two iterations: one block) and
    one set rotation later are the same state up to rotation, so they
    get equal fingerprints and equal exact keys."""
    cfg = CacheConfig(128, 2, 16, "lru")  # 4 sets, 2 doubles per block
    node = make_scan_scop().roots[0].children[0]
    symbolic = SymbolicCache(cfg)
    for i in range(23):
        symbolic.access(node.addr_at((i,)) // 16, False, (node, (i,)))
    key = symbolic.snapshot_key(1, (23,))
    image = symbolic.clone()
    image.apply_rotation(1, (2,), 1)
    assert image.mru_set == (symbolic.mru_set + 1) % cfg.num_sets
    assert [s.lines for s in image.sets] != [s.lines for s in symbolic.sets]
    assert fingerprint(image.snapshots()) == fingerprint(symbolic.snapshots())
    assert image.snapshot_key(1, (25,)) == key
    # Re-based onto another iteration, the same state is another key.
    assert image.snapshot_key(1, (24,)) != key


def test_snapshot_is_shared_until_the_set_changes():
    cfg = CacheConfig(128, 2, 16, "lru")
    node = make_scan_scop().roots[0].children[0]
    symbolic = SymbolicCache(cfg)
    symbolic.access(0, False, (node, (0,)))
    set_state = symbolic.sets[0]

    def content():
        return (set_state.policy_state, tuple(set_state.syms),
                tuple(set_state.points))

    first = set_state.snapshot()
    assert first[:3] == content()
    assert set_state.snapshot() is first
    # Only the changed set is copied; the others keep their snapshots.
    # Rotation order starts at the most recently used set: 0, then 1.
    before = symbolic.snapshots()
    symbolic.access(1, False, (node, (2,)))     # set 1
    after = symbolic.snapshots()
    assert [a is b for a, b in zip(before[1:] + before[:1], after)] == [
        False, True, True, True]
    set_state.access(symbolic.policy, 0, True, (node, (8,)))  # a hit
    second = set_state.snapshot()
    assert second is not first and second[:3] == content()
    assert (8,) in second[2]
    set_state.empty(set_state.lines.index(0))
    third = set_state.snapshot()
    assert third is not second and third[:3] == content()
    assert third[1:3] == ((None, None), (None, None))
    # A clone has no snapshot yet: it takes its own, with equal content.
    copy = set_state.clone()
    assert copy.snapshot() is not third and copy.snapshot()[:3] == third[:3]
