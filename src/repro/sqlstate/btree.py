"""B+trees over the pager: tables (rowid → record) and indexes (key → rowid).

Classic structure: interior nodes hold separator keys and child pointers,
leaves hold the entries and are chained left-to-right for in-order scans.
Pages are parsed to entry lists on access and re-serialized on change;
oversized leaves/interiors split, pushing a separator up (growing a new
root when the old root splits).  Deletion is lazy — emptied leaves stay in
place until the tree is rebuilt — which keeps the code honest and simple
without affecting correctness.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.common.errors import SqlError
from repro.sqlstate.pager import Pager

_LEAF = 1
_INTERIOR = 2
_LEAF_HEAD = struct.Struct(">BHI")  # type, count, next_leaf
_INT_HEAD = struct.Struct(">BHI")  # type, count, child0
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


@dataclass
class _Leaf:
    entries: list[tuple[bytes, bytes]]
    next_leaf: int

    def serialize(self, page_size: int) -> Optional[bytes]:
        parts = [_LEAF_HEAD.pack(_LEAF, len(self.entries), self.next_leaf)]
        size = _LEAF_HEAD.size
        for key, value in self.entries:
            size += 2 + len(key) + 4 + len(value)
            if size > page_size:
                return None
            parts.append(_U16.pack(len(key)))
            parts.append(key)
            parts.append(_U32.pack(len(value)))
            parts.append(value)
        raw = b"".join(parts)
        return raw + bytes(page_size - len(raw))


@dataclass
class _Interior:
    child0: int
    entries: list[tuple[bytes, int]]  # (separator key, child covering >= key)

    def serialize(self, page_size: int) -> Optional[bytes]:
        parts = [_INT_HEAD.pack(_INTERIOR, len(self.entries), self.child0)]
        size = _INT_HEAD.size
        for key, child in self.entries:
            size += 2 + len(key) + 4
            if size > page_size:
                return None
            parts.append(_U16.pack(len(key)))
            parts.append(key)
            parts.append(_U32.pack(child))
        raw = b"".join(parts)
        return raw + bytes(page_size - len(raw))


def _parse(raw: bytes):
    kind = raw[0]
    if kind == _LEAF:
        _t, count, next_leaf = _LEAF_HEAD.unpack_from(raw)
        pos = _LEAF_HEAD.size
        entries = []
        for _ in range(count):
            (klen,) = _U16.unpack_from(raw, pos)
            pos += 2
            key = raw[pos : pos + klen]
            pos += klen
            (vlen,) = _U32.unpack_from(raw, pos)
            pos += 4
            value = raw[pos : pos + vlen]
            pos += vlen
            entries.append((bytes(key), bytes(value)))
        return _Leaf(entries=entries, next_leaf=next_leaf)
    if kind == _INTERIOR:
        _t, count, child0 = _INT_HEAD.unpack_from(raw)
        pos = _INT_HEAD.size
        entries = []
        for _ in range(count):
            (klen,) = _U16.unpack_from(raw, pos)
            pos += 2
            key = raw[pos : pos + klen]
            pos += klen
            (child,) = _U32.unpack_from(raw, pos)
            pos += 4
            entries.append((bytes(key), child))
        return _Interior(child0=child0, entries=entries)
    raise SqlError(f"corrupt b-tree page (type byte {kind})")


class BTree:
    """One tree rooted at ``root_page``.

    The root page number is stable for the tree's lifetime (the catalog
    stores it); a root split copies the old root into a fresh page and
    re-roots in place.
    """

    def __init__(self, pager: Pager, root_page: int) -> None:
        self.pager = pager
        self.root_page = root_page

    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        page_no = pager.allocate()
        tree = cls(pager, page_no)
        pager.put(page_no, _Leaf(entries=[], next_leaf=0).serialize(pager.page_size))
        return tree

    def _node(self, page_no: int):
        """Parse a page, going through the pager's parsed-node cache.

        Profiling shows re-parsing pages on every access dominates the
        engine's cost, so parsed nodes are memoized per page.  Write paths
        must call ``pager.forget_node`` *before* mutating a node in place
        (an exception between mutate and store must not leave a stale
        parse cached) and re-register only after a successful store.
        """
        node = self.pager.cached_node(page_no)
        if node is None:
            node = _parse(self.pager.get(page_no))
            self.pager.register_node(page_no, node)
        return node

    # -- lookup ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        leaf = self._node(self._find_leaf(key))
        index = self._bisect(leaf.entries, key)
        if index < len(leaf.entries) and leaf.entries[index][0] == key:
            return leaf.entries[index][1]
        return None

    def _find_leaf(self, key: bytes) -> int:
        page_no = self.root_page
        while True:
            node = self._node(page_no)
            if isinstance(node, _Leaf):
                return page_no
            page_no = self._child_for(node, key)

    @staticmethod
    def _child_for(node: _Interior, key: bytes) -> int:
        child = node.child0
        for sep, right in node.entries:
            if key >= sep:
                child = right
            else:
                break
        return child

    @staticmethod
    def _bisect(entries: list[tuple[bytes, bytes]], key: bytes) -> int:
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- mutation ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes, replace: bool = True) -> None:
        if len(key) + len(value) + 64 > self.pager.page_size:
            raise SqlError(
                f"entry of {len(key) + len(value)} bytes exceeds the page "
                f"capacity ({self.pager.page_size})"
            )
        split = self._insert_into(self.root_page, key, value, replace)
        if split is not None:
            self._grow_root(split)

    def _insert_into(
        self, page_no: int, key: bytes, value: bytes, replace: bool
    ) -> Optional[tuple[bytes, int]]:
        node = self._node(page_no)
        if isinstance(node, _Leaf):
            index = self._bisect(node.entries, key)
            if index < len(node.entries) and node.entries[index][0] == key:
                if not replace:
                    raise SqlError("duplicate key")
                self.pager.forget_node(page_no)
                node.entries[index] = (key, value)
            else:
                self.pager.forget_node(page_no)
                node.entries.insert(index, (key, value))
            return self._store_leaf(page_no, node)
        child = self._child_for(node, key)
        split = self._insert_into(child, key, value, replace)
        if split is None:
            return None
        sep, right_page = split
        index = 0
        while index < len(node.entries) and node.entries[index][0] < sep:
            index += 1
        self.pager.forget_node(page_no)
        node.entries.insert(index, (sep, right_page))
        return self._store_interior(page_no, node)

    def _store_leaf(self, page_no: int, node: _Leaf) -> Optional[tuple[bytes, int]]:
        raw = node.serialize(self.pager.page_size)
        if raw is not None:
            self.pager.put(page_no, raw)
            self.pager.register_node(page_no, node)
            return None
        # Overflow: split entries in half, link the new right leaf in.
        mid = len(node.entries) // 2
        right = _Leaf(entries=node.entries[mid:], next_leaf=node.next_leaf)
        left = _Leaf(entries=node.entries[:mid], next_leaf=0)
        right_page = self.pager.allocate()
        left.next_leaf = right_page
        right_raw = right.serialize(self.pager.page_size)
        left_raw = left.serialize(self.pager.page_size)
        if right_raw is None or left_raw is None:
            raise SqlError("entry too large to split across pages")
        self.pager.put(right_page, right_raw)
        self.pager.put(page_no, left_raw)
        self.pager.register_node(right_page, right)
        self.pager.register_node(page_no, left)
        return (right.entries[0][0], right_page)

    def _store_interior(
        self, page_no: int, node: _Interior
    ) -> Optional[tuple[bytes, int]]:
        raw = node.serialize(self.pager.page_size)
        if raw is not None:
            self.pager.put(page_no, raw)
            self.pager.register_node(page_no, node)
            return None
        mid = len(node.entries) // 2
        sep, right_child0 = node.entries[mid]
        right = _Interior(child0=right_child0, entries=node.entries[mid + 1 :])
        left = _Interior(child0=node.child0, entries=node.entries[:mid])
        right_page = self.pager.allocate()
        self.pager.put(right_page, right.serialize(self.pager.page_size))
        self.pager.put(page_no, left.serialize(self.pager.page_size))
        self.pager.register_node(right_page, right)
        self.pager.register_node(page_no, left)
        return (sep, right_page)

    def _grow_root(self, split: tuple[bytes, int]) -> None:
        """Re-root in place: move the current root to a new page and make
        the root page an interior node over (old root, new sibling)."""
        sep, right_page = split
        moved = self.pager.allocate()
        self.pager.put(moved, self.pager.get(self.root_page))
        new_root = _Interior(child0=moved, entries=[(sep, right_page)])
        self.pager.put(self.root_page, new_root.serialize(self.pager.page_size))

    def delete(self, key: bytes) -> bool:
        page_no = self._find_leaf(key)
        node = self._node(page_no)
        index = self._bisect(node.entries, key)
        if index >= len(node.entries) or node.entries[index][0] != key:
            return False
        self.pager.forget_node(page_no)
        del node.entries[index]
        raw = node.serialize(self.pager.page_size)
        self.pager.put(page_no, raw)
        self.pager.register_node(page_no, node)
        return True

    # -- iteration -------------------------------------------------------------------

    def scan(self, start_key: Optional[bytes] = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) in key order, starting at ``start_key``."""
        if start_key is None:
            page_no = self._leftmost_leaf()
            index = 0
        else:
            page_no = self._find_leaf(start_key)
            node = self._node(page_no)
            index = self._bisect(node.entries, start_key)
        while page_no:
            node = self._node(page_no)
            for position in range(index, len(node.entries)):
                yield node.entries[position]
            page_no = node.next_leaf
            index = 0

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        for key, value in self.scan(start_key=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def scan_range(
        self, low: Optional[bytes], high: Optional[bytes]
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with ``low <= key``, stopping once keys pass
        ``high`` (prefix-inclusive: a key extending ``high`` still
        matches, which is how index entries carry a rowid suffix).

        Both bounds are *inclusive* at the encoded-key level by design:
        the numeric key encoding is monotone but not injective (large
        integers collapse onto floats), so strict bounds must be
        enforced by the caller re-checking decoded values, never by
        skipping encoded keys.
        """
        for key, value in self.scan(start_key=low):
            if high is not None and key > high and not key.startswith(high):
                return
            yield key, value

    def _leftmost_leaf(self) -> int:
        page_no = self.root_page
        while True:
            node = self._node(page_no)
            if isinstance(node, _Leaf):
                return page_no
            page_no = node.child0

    def last_key(self) -> Optional[bytes]:
        """The maximum key (used for rowid assignment)."""
        page_no = self.root_page
        while True:
            node = self._node(page_no)
            if isinstance(node, _Interior):
                page_no = node.entries[-1][1] if node.entries else node.child0
                continue
            if node.entries:
                return node.entries[-1][0]
            # Lazy deletion can leave an empty rightmost leaf; fall back to
            # a full scan of the (rare) degenerate tree.
            best = None
            for key, _value in self.scan():
                best = key
            return best

    def count(self) -> int:
        return sum(1 for _ in self.scan())
