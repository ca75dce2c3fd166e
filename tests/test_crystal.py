import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slnbranch import (
    CrystalGraph,
    as_partition,
    build_component,
    chi_by_branching,
    chi_direct,
    e_tilde,
    eps_phi,
    epsilon_vector,
    f_tilde,
    is_js,
    is_js_by_crystal,
    is_n_regular,
    is_rectangle_le_n,
    js_set,
    n_weight,
    partitions_of,
    partitions_up_to,
    weight_of,
)
from slnbranch.branching import fow_prefix
from slnbranch.cores import block_content
from slnbranch.crystal import _signatures, eps_index

from oracles import (
    add_cell,
    eps_close,
    eps_prefix,
    remove_cell,
    signature_word,
    simple_root,
    weight_difference,
)


@st.composite
def ranked_regular_partitions(draw):
    """(n, p) with n in 2..5 and p n-regular: distinct parts, each repeated < n times."""
    n = draw(st.integers(2, 5))
    values = draw(st.sets(st.integers(1, 15), max_size=8))
    parts = []
    for value in sorted(values, reverse=True):
        parts += [value] * draw(st.integers(1, n - 1))
    return n, tuple(parts)


@st.composite
def ranked_partitions(draw):
    """(n, p) with n in 2..7 and p any partition of size at most 60."""
    n = draw(st.integers(2, 7))
    left = draw(st.integers(0, 60))
    parts = []
    while left:
        part = draw(st.integers(1, min(left, parts[-1] if parts else left)))
        parts.append(part)
        left -= part
    return n, tuple(parts)


def word_reference(p, n):
    """Statistics and operator images read off the reduced i-signature words."""
    eps, phi, raised, lowered = [], [], [], []
    for i in range(n):
        _, reduced = signature_word(p, n, i)
        minuses = [cell for cell, sign in reduced if sign == "-"]
        pluses = [cell for cell, sign in reduced if sign == "+"]
        eps.append(len(minuses))
        phi.append(len(pluses))
        raised.append(remove_cell(p, minuses[-1]) if minuses else None)
        lowered.append(add_cell(p, pluses[0]) if pluses else None)
    return eps, phi, raised, lowered


def assert_kernel_matches_word(p, n):
    eps, phi, raised, lowered = word_reference(p, n)
    assert epsilon_vector(p, n) == tuple(eps)
    scan_eps, plus, _ = _signatures(p, n)
    assert (scan_eps, [len(rows) for rows in plus]) == (eps, phi)
    profile = 0 if not p else eps.index(1) if sum(eps) == 1 else None
    assert eps_index(p, n) == profile
    for i in range(n):
        assert eps_phi(p, n, i) == (eps[i], phi[i])
        assert e_tilde(p, n, i) == raised[i]
        assert f_tilde(p, n, i) == lowered[i]


class TestKernelMatchesWord:
    """The integer row scan agrees with the word form on every partition."""

    @pytest.mark.parametrize("n, max_size", [(2, 14), (3, 14), (4, 12), (5, 12)])
    def test_every_partition(self, n, max_size):
        for m in range(max_size + 1):
            for p in partitions_of(m):
                assert_kernel_matches_word(p, n)

    @settings(max_examples=200, deadline=None)
    @given(ranked_partitions())
    def test_random_partitions(self, case):
        n, p = case
        assert_kernel_matches_word(p, n)


@pytest.mark.parametrize("fn", [eps_phi, e_tilde, f_tilde])
@pytest.mark.parametrize("n, i", [(2, -1), (2, 2), (3, -1), (3, 3)])
def test_residue_out_of_range_rejected(fn, n, i):
    with pytest.raises(ValueError, match=f"residue {i} out of range for n={n}"):
        fn((2, 1), n, i)


@pytest.mark.parametrize("make", [eps_prefix, eps_close, fow_prefix])
@pytest.mark.parametrize("n, j", [(2, -1), (2, 2), (3, -1), (3, 3)])
def test_walk_tests_reject_a_residue_out_of_range(make, n, j):
    # Checked when the test is made, before any walk calls it.
    with pytest.raises(ValueError, match=f"residue {j} out of range for n={n}"):
        make(n, j)


def signs(word):
    return "".join(sign for _, sign in word)


class TestSignature:
    """The word-form reference, pinned by hand."""

    def test_no_cancellation(self):
        raw, reduced = signature_word((2,), 2, 1)
        assert signs(raw) == "-+"
        assert signs(reduced) == "-+"

    def test_full_cancellation(self):
        raw, reduced = signature_word((3, 1), 2, 1)
        assert signs(raw) == "+-"
        assert signs(reduced) == ""

    def test_empty_partition(self):
        assert signs(signature_word((), 3, 0)[1]) == "+"

    def test_reduced_shape_minus_then_plus(self):
        for p in partitions_up_to(12, regular=3):
            for i in range(3):
                text = signs(signature_word(p, 3, i)[1])
                assert "+-" not in text and "-" not in text.lstrip("-")


class TestEpsPhi:
    def test_examples(self):
        assert eps_phi((2,), 2, 1) == (1, 1)
        assert eps_phi((2, 1), 2, 1) == (2, 0)
        assert eps_phi((), 3, 0) == (0, 1)
        assert eps_phi((), 2, 0) == (0, 1)

    def test_counts_match_operator_support(self):
        for p in partitions_up_to(10, regular=3):
            for i in range(3):
                eps, phi = eps_phi(p, 3, i)
                # eps/phi are the largest powers with nonzero result
                q = p
                for _ in range(eps):
                    q = e_tilde(q, 3, i)
                    assert q is not None
                assert e_tilde(q, 3, i) is None
                q = p
                for _ in range(phi):
                    q = f_tilde(q, 3, i)
                    assert q is not None
                assert f_tilde(q, 3, i) is None


class TestOperators:
    def test_raise_examples(self):
        assert e_tilde((2, 1), 2, 1) == (2,)
        assert e_tilde((2,), 2, 1) == (1,)
        assert e_tilde((), 2, 0) is None

    def test_lower_examples(self):
        assert f_tilde((), 2, 0) == (1,)
        assert f_tilde((1,), 2, 1) == (2,)
        assert f_tilde((2,), 3, 2) == (3,)

    @pytest.mark.parametrize(
        "op, p, n, i, message",
        [
            (f_tilde, (1, 2), 2, 0, "parts must be weakly decreasing, got (1, 2)"),
            (e_tilde, (2, 0), 2, 1, "parts must be positive integers, got 0"),
            (f_tilde, (2, 0), 2, 1, "parts must be positive integers, got 0"),
            (e_tilde, (1, 2, 1), 3, 0, "parts must be weakly decreasing, got (1, 2, 1)"),
            (eps_phi, (1, 2), 2, 0, "parts must be weakly decreasing, got (1, 2)"),
            (epsilon_vector, (1, 2), 2, None, "parts must be weakly decreasing, got (1, 2)"),
            (is_js, (1, 2), 3, None, "parts must be weakly decreasing, got (1, 2)"),
            (is_js_by_crystal, (1, 2), 3, None, "parts must be weakly decreasing, got (1, 2)"),
            # not 3-regular either: validation comes before the regularity verdict
            (is_js, (1, 1, 1, 2), 3, None, "parts must be weakly decreasing, got (1, 1, 1, 2)"),
            (
                is_js_by_crystal,
                (1, 1, 1, 2),
                3,
                None,
                "parts must be weakly decreasing, got (1, 1, 1, 2)",
            ),
        ],
    )
    def test_malformed_input_rejected_on_edit(self, op, p, n, i, message):
        # p is validated before the scan, not only the edited tuple after it,
        # so the message names the input, and an input whose edit happens to
        # be a partition is rejected too.
        with pytest.raises(ValueError) as info:
            op(p, n) if i is None else op(p, n, i)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 5),
        st.lists(st.integers(-3, 9), min_size=1, max_size=8).map(tuple),
        st.integers(0, 1),
    )
    def test_malformed_input_raises_the_validation_message(self, n, parts, i):
        try:
            as_partition(parts)
        except ValueError as error:
            message = str(error)
        else:
            assume(False)
        for call in (
            lambda: eps_phi(parts, n, i),
            lambda: epsilon_vector(parts, n),
            lambda: e_tilde(parts, n, i),
            lambda: f_tilde(parts, n, i),
            lambda: is_js(parts, n),
            lambda: is_js_by_crystal(parts, n),
            lambda: n_weight(parts, n),
            lambda: weight_of(parts, n),
            # The core argument of the n-core and chi entry points.
            lambda: chi_by_branching(n, parts, 2),
            lambda: is_rectangle_le_n(parts, n),
            lambda: block_content(n, parts),
            lambda: js_set(n, parts, 1),
            lambda: chi_direct(n, parts, 2),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_malformed_core_rejected_at_entry(self):
        # Unvalidated, (0,) passed as a rectangular core (chi_by_branching
        # returned (1, 2, 5)) and (1, 2) as a non-core (block dimension 0);
        # block_content validates the shape before it checks for a core.
        for call in (
            lambda: chi_by_branching(3, (0,), 2),
            lambda: is_rectangle_le_n((0,), 3),
            lambda: block_content(3, (0,)),
            lambda: js_set(3, (0,), 1),
            lambda: chi_direct(3, (0,), 2),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "parts must be positive integers, got 0"
        with pytest.raises(ValueError) as info:
            block_content(3, (1, 2))
        assert str(info.value) == "parts must be weakly decreasing, got (1, 2)"

    def test_inverse_relations_up_to_14(self):
        for n in (2, 3, 4):
            for p in partitions_up_to(14, regular=n):
                for i in range(n):
                    down = f_tilde(p, n, i)
                    if down is not None:
                        assert e_tilde(down, n, i) == p
                    up = e_tilde(p, n, i)
                    if up is not None:
                        assert f_tilde(up, n, i) == p

    @settings(max_examples=200, deadline=None)
    @given(ranked_regular_partitions())
    def test_inverse_relations_property(self, case):
        n, p = case
        for i in range(n):
            up = e_tilde(p, n, i)
            if up is not None:
                assert f_tilde(up, n, i) == p
            down = f_tilde(p, n, i)
            if down is not None:
                assert e_tilde(down, n, i) == p

    def test_statistics_step_along_edges(self):
        for n in (2, 3):
            for p in partitions_up_to(12, regular=n):
                for i in range(n):
                    down = f_tilde(p, n, i)
                    if down is None:
                        continue
                    eps, phi = eps_phi(p, n, i)
                    assert eps_phi(down, n, i) == (eps + 1, phi - 1)

    def test_weight_compatibility_up_to_14(self):
        # phi - eps is the i-th weight coefficient; edges shift by a simple root
        for n in (2, 3, 4):
            for p in partitions_up_to(14, regular=n):
                w = weight_of(p, n)
                for i in range(n):
                    eps, phi = eps_phi(p, n, i)
                    assert phi - eps == w[0][i]
                    down = f_tilde(p, n, i)
                    if down is not None:
                        assert weight_of(down, n) == weight_difference(w, simple_root(n, i))


class TestComponent:
    def test_new_graphs_share_no_list_or_dict(self):
        a, b = CrystalGraph(), CrystalGraph()
        for name in ("vertices", "edges", "eps", "js"):
            assert getattr(a, name) is not getattr(b, name)
        a.vertices.append(())
        a.edges.append(((), 0, (1,)))
        a.eps[()] = (0, 0)
        a.js[()] = True
        assert (b.vertices, b.edges, b.eps, b.js) == ([], [], {}, {})

    def test_size_one(self):
        g = build_component(3, 1)
        assert g.vertices == [(), (1,)]
        assert g.edges == [((), 0, (1,))]

    def test_size_four_vertex_count(self):
        assert len(build_component(3, 4).vertices) == 10

    def test_n2_size_three_vertex_set(self):
        g = build_component(2, 3)
        assert set(g.vertices) == {(), (1,), (2,), (2, 1), (3,)}

    def test_vertices_are_exactly_regular_partitions(self):
        for n in (2, 3, 4):
            g = build_component(n, 10)
            expected = {p for p in partitions_up_to(10, regular=n)}
            assert set(g.vertices) == expected

    def test_every_vertex_reaches_empty_by_raising(self):
        g = build_component(3, 8)
        for p in g.vertices:
            q = p
            steps = 0
            while q:
                moved = False
                for i in range(3):
                    up = e_tilde(q, 3, i)
                    if up is not None:
                        q = up
                        moved = True
                        break
                assert moved, f"stuck at {q}"
                steps += 1
                assert steps <= sum(p)

    def test_edges_shift_weight_by_simple_root(self):
        # The graph holds no weights: each end of an edge is weighed on its own.
        for n in (2, 3, 4, 5):
            for src, i, dst in build_component(n, 10).edges:
                assert weight_of(dst, n) == weight_difference(weight_of(src, n), simple_root(n, i))

    def test_operators_defined_beyond_regular_set(self):
        # the full Fock operators act on every partition
        assert f_tilde((1, 1), 2, 0) == (1, 1, 1)
        assert not is_n_regular((1, 1, 1), 2)


class TestExports:
    def test_dot_marks_exactly_the_chain_members(self):
        # The marks come from the eps-profile; is_js is the chain congruence.
        from slnbranch import format_partition, parse_partition

        for n in (2, 3, 4, 5):
            g = build_component(n, 8)
            starred = set()
            for line in g.to_dot().splitlines():
                if "[label=" in line and "->" not in line:
                    name = line.split('"')[1]
                    label = line.split('"')[3]
                    if label.endswith("*"):
                        starred.add(name)
                    assert label.rstrip("*") == name
            for p in g.vertices:
                assert (format_partition(p) in starred) == is_js(p, n)
            for name in starred:
                assert is_js(parse_partition(name), n)

    def test_json_schema(self):
        g = build_component(2, 3)
        data = g.to_json_dict()
        assert set(data) == {"vertices", "edges"}
        assert data["vertices"][0] == {"partition": [], "eps": [0, 0], "js": True}
        for edge in data["edges"]:
            assert set(edge) == {"from", "i", "to"}

    def test_build_is_deterministic(self):
        a = build_component(3, 7)
        b = build_component(3, 7)
        assert a.vertices == b.vertices
        assert a.edges == b.edges
        assert a.to_dot() == b.to_dot()
        assert a.to_json_dict() == b.to_json_dict()
