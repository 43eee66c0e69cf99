"""A kernel whose warp attempts ask the same ILP questions on every cache
with one block size, for the tests of the decision cache.

The ``i`` loop reads ``y[0]`` at every iteration, so its state recurs one
iteration later wherever ``z[i]`` stays in one block, whatever the
cache's capacity, associativity, policy or set count.  Each such match
is an attempt that finds ``z[i]`` shifted by 8 bytes, not a whole block,
and asks whether ``z`` is accessed in the rest of the loop; the
``k <= j`` bound of the inner nest keeps the interval hull from
answering, so the ILP does.  A cache of another block size matches at
other iterations and asks other questions.

Loops whose coupled guards rule out every warp take no keys, so the
PolyBench kernels that used to ask one such question at MINI (lu and
nussinov) ask none.  Register the kernel for one test with
``monkeypatch.setitem(KERNELS, NAME, SPEC)``.
"""

from repro.polybench.registry import KernelSpec
from repro.polyhedral import ScopBuilder

NAME = "static-questions"


def build(N: int):
    b = ScopBuilder(NAME)
    y = b.array("y", (4,))
    x = b.array("x", (8,))
    z = b.array("z", (N,))
    with b.loop("i", 0, N):
        b.read(y, 0)
        with b.loop("j", 0, 4):
            with b.loop("k", 0, b.j + 1):
                b.read(x, b.k)
                b.read(z, b.i)
    return b.build()


SPEC = KernelSpec(name=NAME, category="test", params=("N",),
                  sizes={"MINI": (16,)}, builder=build)
