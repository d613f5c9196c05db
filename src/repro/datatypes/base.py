"""Datatype kernel.

A datatype in this reproduction is what the paper's Java binding makes it:
a *selection pattern over a one-dimensional array of one primitive type*.
Because Java (and our binding) forbids mixed-primitive buffers, a derived
type never needs a byte-level type map — it reduces to

* a primitive ``base`` (NumPy dtype + element size),
* ``disp`` — the element offsets (in base-element units) touched by one
  instance of the type, in serialization order, and
* ``extent_elems`` — the stride between consecutive instances when
  ``count > 1`` (MPI's *extent*, in elements).

This representation makes packing vectorizable: the flat element indices for
``count`` instances starting at ``offset`` are
``offset + i*extent + disp`` for ``i in range(count)`` — a single
``np.add.outer`` (see :mod:`repro.datatypes.packing`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import MPIException, ERR_ARG, ERR_COUNT, ERR_TYPE
from repro.datatypes.layout import LayoutIR

#: Cache size for per-(count, offset) flattened index maps.  Eviction is
#: LRU: a working set of persistent requests cycling through more than
#: _INDEX_CACHE_MAX shapes drops only the coldest entry per miss instead
#: of dumping every cached index map at once.
_INDEX_CACHE_MAX = 32


@dataclass(frozen=True)
class PrimitiveInfo:
    """Descriptor of a primitive base type.

    ``is_object`` marks the ``MPI.OBJECT`` extension type whose buffers hold
    arbitrary serializable Python objects rather than numeric elements.
    """

    name: str
    np_dtype: object          # numpy dtype (None for OBJECT)
    itemsize: int             # bytes per element (0 for OBJECT)
    is_object: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrimitiveInfo({self.name})"


class DatatypeImpl:
    """Internal (runtime-side) datatype object.

    The public :class:`repro.mpijava.datatype.Datatype` wraps a handle that
    resolves to one of these.  Instances are immutable after ``commit``.
    """

    def __init__(self, base: PrimitiveInfo, disp, extent_elems: int,
                 name: str = "", committed: bool = False,
                 is_pair: bool = False):
        self.base = base
        self.disp = np.ascontiguousarray(disp, dtype=np.int64)
        if self.disp.ndim != 1:
            raise MPIException(ERR_TYPE, "displacement map must be 1-D")
        #: number of base elements transferred per instance (``disp``
        #: never changes after construction)
        self.size_elems = int(self.disp.shape[0])
        self.extent_elems = int(extent_elems)
        self.name = name or "user"
        self.committed = bool(committed)
        self.freed = False
        #: pair types (INT2 &c.) are the only legal operands of MINLOC/MAXLOC
        self.is_pair = bool(is_pair)
        self._index_cache: OrderedDict[tuple[int, int], np.ndarray] = \
            OrderedDict()
        self._contiguous: bool | None = None   # is_contiguous_layout cache
        self._layout: LayoutIR | None = None   # run-length layout IR cache

    # -- inquiry (MPI_Type_size / extent / lb / ub) --------------------------
    def size_bytes(self) -> int:
        """``MPI_Type_size`` — bytes of actual data per instance."""
        return self.size_elems * self.base.itemsize

    def lb_elems(self) -> int:
        """Lower bound, in elements (``MPI_Type_lb`` / element units)."""
        # the layout IR caches min/max displacement; recomputing them
        # with a reduction over ``disp`` sat on every window validation
        return self.layout().span_lo if self.size_elems else 0

    def ub_elems(self) -> int:
        """Upper bound, in elements (``MPI_Type_ub`` / element units)."""
        return self.layout().span_hi if self.size_elems else 0

    def lb_bytes(self) -> int:
        return self.lb_elems() * self.base.itemsize

    def ub_bytes(self) -> int:
        return self.ub_elems() * self.base.itemsize

    def extent_bytes(self) -> int:
        """``MPI_Type_extent`` in bytes."""
        return self.extent_elems * self.base.itemsize

    @property
    def is_primitive(self) -> bool:
        return (self.size_elems == 1 and self.extent_elems == 1
                and (self.size_elems == 0 or int(self.disp[0]) == 0))

    def is_contiguous_layout(self) -> bool:
        """True when ``count`` instances cover a dense index range.

        Cached: the displacement map is immutable after construction, and
        this sits on the per-message send/receive fast path.
        """
        if self._contiguous is None:
            self._contiguous = self.layout().contiguous
        return self._contiguous

    def layout(self) -> LayoutIR:
        """The run-length layout IR (built once, cached; see
        :class:`~repro.datatypes.layout.LayoutIR`)."""
        lay = self._layout
        if lay is None:
            self._check_alive()   # a freed type must not rebuild its IR
            lay = self._layout = LayoutIR(self.disp, self.extent_elems,
                                          self.base.itemsize)
        return lay

    # -- lifecycle -----------------------------------------------------------
    def commit(self) -> None:
        """``MPI_Type_commit`` — mark usable for communication.

        Compiles the layout IR here, once: commit is MPI's declared
        "optimize this type now" point, and every datapath consumer
        (packing, iovec construction, direct landing, segment math)
        reads the cached IR from then on.
        """
        self._check_alive()
        self.committed = True
        if not self.base.is_object:
            self.layout()

    def free(self) -> None:
        """``MPI_Type_free`` — release; further use is erroneous.

        Drops the cached index maps *and* the layout IR: a freed type's
        compiled artifacts must not keep the (potentially large) arrays
        alive, and any stale handle reuse fails loudly instead of
        reading a cache.
        """
        self._check_alive()
        self.freed = True
        self._index_cache.clear()
        self._layout = None
        self._contiguous = None

    def _check_alive(self) -> None:
        if self.freed:
            raise MPIException(ERR_TYPE, f"datatype {self.name} was freed")

    # -- index-map machinery ---------------------------------------------------
    def flat_indices(self, count: int, offset: int = 0) -> np.ndarray:
        """Flat element indices selected by ``count`` instances at ``offset``.

        The result is cached for repeated (count, offset) pairs — persistent
        requests and fixed-size loops hit the cache every iteration.
        """
        self._check_alive()
        if count < 0:
            raise MPIException(ERR_COUNT, f"negative count {count}")
        key = (int(count), int(offset))
        hit = self._index_cache.get(key)
        if hit is not None:
            try:
                self._index_cache.move_to_end(key)
            except KeyError:   # concurrently evicted by another rank
                pass
            return hit
        starts = offset + np.arange(count, dtype=np.int64) * self.extent_elems
        idx = np.add.outer(starts, self.disp).ravel()
        while len(self._index_cache) >= _INDEX_CACHE_MAX:
            try:
                self._index_cache.popitem(last=False)  # evict LRU only
            except KeyError:   # another rank emptied it concurrently
                break
        self._index_cache[key] = idx
        return idx

    def span_elems(self, count: int) -> int:
        """Highest element index touched + 1, for ``count`` instances at 0."""
        if count == 0 or self.size_elems == 0:
            return 0
        return (count - 1) * self.extent_elems + self.ub_elems()

    def min_elem(self, count: int) -> int:
        """Lowest element index touched for ``count`` instances at offset 0."""
        if count == 0 or self.size_elems == 0:
            return 0
        lb = self.lb_elems()
        last = (count - 1) * self.extent_elems + lb
        return min(lb, last)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DatatypeImpl({self.name}, base={self.base.name}, "
                f"size={self.size_elems}, extent={self.extent_elems})")


def check_same_base(types, context: str) -> PrimitiveInfo:
    """Enforce the paper's §2.2 restriction: one base type per buffer.

    ``Datatype.Struct`` (and any composition) must combine types sharing a
    single primitive base, which must agree with the buffer's element type.
    """
    bases = {t.base.name for t in types}
    if len(bases) != 1:
        raise MPIException(
            ERR_TYPE,
            f"{context}: mpiJava restricts combined types to one base type "
            f"(got {sorted(bases)}); see paper section 2.2")
    return types[0].base


def check_byte_displacement(nbytes: int, base: PrimitiveInfo,
                            context: str) -> int:
    """Convert a byte displacement to elements, validating alignment.

    The pointer-free buffer model means byte displacements (``Hvector``,
    ``Hindexed``, ``Struct``) must land on element boundaries of the base
    type.
    """
    if base.itemsize == 0:
        raise MPIException(ERR_TYPE, f"{context}: byte displacements are "
                                     f"meaningless for MPI.OBJECT")
    q, r = divmod(int(nbytes), base.itemsize)
    if r != 0:
        raise MPIException(
            ERR_ARG,
            f"{context}: byte displacement {nbytes} is not a multiple of "
            f"the {base.name} element size {base.itemsize}")
    return q
