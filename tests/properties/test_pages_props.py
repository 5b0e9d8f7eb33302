"""Property tests: the paged state region behaves like a big bytearray."""

from hypothesis import given, settings, strategies as st

from repro.crypto.digests import md5_digest
from repro.statemgr.merkle import MerkleTree
from repro.statemgr.pages import PagedState

NUM_PAGES, PAGE_SIZE = 8, 64
SIZE = NUM_PAGES * PAGE_SIZE

writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SIZE - 1),
        st.binary(min_size=1, max_size=48),
    ),
    max_size=30,
)


@given(ops=writes)
@settings(max_examples=80)
def test_matches_bytearray_model(ops):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    model = bytearray(SIZE)
    for offset, data in ops:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
        model[offset : offset + len(data)] = data
    assert state.read(0, SIZE) == bytes(model)


@given(ops=writes)
@settings(max_examples=60)
def test_same_content_same_root(ops):
    def build():
        state = PagedState(NUM_PAGES, PAGE_SIZE)
        for offset, data in ops:
            data = data[: SIZE - offset]
            state.modify(offset, len(data))
            state.write(offset, data)
        return state

    assert build().refresh_tree() == build().refresh_tree()


@given(ops=writes, extra=writes)
@settings(max_examples=40)
def test_restore_is_exact(ops, extra):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    for offset, data in ops:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
    snapshot = state.snapshot_pages()
    root = state.refresh_tree()
    content = state.read(0, SIZE)
    state.end_of_execution()
    for offset, data in extra:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
    state.restore(snapshot)
    assert state.read(0, SIZE) == content
    assert state.refresh_tree() == root


@given(ops=writes)
@settings(max_examples=60)
def test_hotpath_fast_paths_equal_slow_paths(ops):
    """The fast paths are invisible to the contract.

    ``bytes`` writes within one page take the single-slice fast path; the
    same writes as ``bytearray`` always take the general multi-page
    splice.  Both must yield identical content, roots and write counts.
    The batched tree refresh must match a tree built leaf by leaf with
    ``MerkleTree.update_leaf``, and single-page reads must match one
    whole-region read.
    """

    def build(as_type):
        state = PagedState(NUM_PAGES, PAGE_SIZE)
        for offset, data in ops:
            data = data[: SIZE - offset]
            state.modify(offset, len(data))
            state.write(offset, as_type(data))
        return state

    fast, slow = build(bytes), build(bytearray)
    content = slow.read(0, SIZE)
    assert fast.read(0, SIZE) == content
    assert fast.writes == slow.writes == len(ops)
    per_leaf = MerkleTree(NUM_PAGES)
    for i in range(NUM_PAGES):
        page = content[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
        assert fast.read(i * PAGE_SIZE, PAGE_SIZE) == page
        per_leaf.update_leaf(i, md5_digest(page))
    assert fast.refresh_tree() == slow.refresh_tree() == per_leaf.root


@given(ops=writes)
@settings(max_examples=40)
def test_restore_with_tree_snapshot_equals_redigest(ops):
    state = PagedState(NUM_PAGES, PAGE_SIZE)
    for offset, data in ops:
        data = data[: SIZE - offset]
        state.modify(offset, len(data))
        state.write(offset, data)
    pages = state.snapshot_pages()
    nodes = state.tree.snapshot_nodes()
    root = state.root

    with_nodes = PagedState(NUM_PAGES, PAGE_SIZE)
    with_nodes.restore(pages, nodes)
    redigested = PagedState(NUM_PAGES, PAGE_SIZE)
    redigested.restore(pages, None)  # no snapshot: re-digests every page
    assert with_nodes.root == redigested.root == root
    assert with_nodes.read(0, SIZE) == redigested.read(0, SIZE)
