"""Tests for symbolic cache states (Section 5.2)."""

import pytest

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.polyhedral import ScopBuilder
from repro.simulation.symbolic import (
    SingleLevel,
    SymbolicCache,
    SymbolicHierarchy,
    evaluate_symbol,
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
        hits.append(target.access(block, (node, (i,)), node.is_write))
    return hits


def test_symbolic_matches_concrete_classification():
    """SymClCache == ClCache on the concretised state (Eq. 12)."""
    scop = make_scan_scop()
    cfg = CacheConfig(256, 2, 16, "lru")
    symbolic = SingleLevel(cfg)
    hits_symbolic = drive(scop, symbolic, 16)

    concrete = Cache(cfg)
    node = scop.roots[0].children[0]
    hits_concrete = [concrete.access(node.addr_at((i,)) // 16)
                     for i in range(64)]
    assert hits_symbolic == hits_concrete
    assert symbolic.cache.misses == concrete.misses


def test_concretize_matches_blocks():
    """gamma maps each stored symbol back to its concrete block."""
    scop = make_scan_scop()
    cfg = CacheConfig(256, 2, 16, "lru")
    symbolic = SymbolicCache(cfg)
    node = scop.roots[0].children[0]
    for i in range(10):
        block = node.addr_at((i,)) // 16
        symbolic.access(block, (node, (i,)), False)
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
        symbolic.access(block, (node, (i,)), False)
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
            target.access(block, (node, (i,)), False)
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
    symbolic.access(0, (node, (0,)), False)
    with pytest.raises(ValueError):
        symbolic.apply_rotation(0, (1,), 1)  # 8-byte shift, 16B blocks


def test_hierarchy_cascades_misses_only():
    cfg = HierarchyConfig(CacheConfig(128, 2, 16), CacheConfig(512, 2, 16))
    hier = SymbolicHierarchy(cfg)
    scop = make_scan_scop(16)
    node = scop.roots[0].children[0]
    for i in range(16):
        block = node.addr_at((i,)) // 16
        hier.access(block, (node, (i,)), False)
    # 8 blocks: L1 sees 16 accesses, L2 only the 8 misses.
    assert hier.l1.hits + hier.l1.misses == 16
    assert hier.l2.hits + hier.l2.misses == hier.l1.misses
    assert len(hier.levels) == 2


def test_reset():
    cfg = CacheConfig(128, 2, 16, "lru")
    symbolic = SingleLevel(cfg)
    scop = make_scan_scop(8)
    node = scop.roots[0].children[0]
    symbolic.access(3, (node, (0,)), False)
    symbolic.reset()
    assert symbolic.cache.misses == 0
    assert all(b is None for s in symbolic.cache.sets for b in s.lines)
