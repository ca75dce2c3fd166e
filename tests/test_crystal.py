from hypothesis import given, settings
from hypothesis import strategies as st

from slnbranch import (
    build_component,
    e_tilde,
    eps_phi,
    epsilon_vector,
    f_tilde,
    i_signature,
    is_js,
    is_n_regular,
    partitions_of,
    phi_vector,
    simple_root,
    weight_of,
)


def regular_up_to(max_size, n):
    for m in range(max_size + 1):
        yield from partitions_of(m, regular=n)


@st.composite
def ranked_regular_partitions(draw):
    """(n, p) with n in 2..5 and p n-regular: distinct parts, each repeated < n times."""
    n = draw(st.integers(2, 5))
    values = draw(st.sets(st.integers(1, 15), max_size=8))
    parts = []
    for value in sorted(values, reverse=True):
        parts += [value] * draw(st.integers(1, n - 1))
    return n, tuple(parts)


class TestSignature:
    def test_no_cancellation(self):
        word = i_signature((2,), 2, 1)
        assert word.raw_text() == "-+"
        assert word.reduced_text() == "-+"

    def test_full_cancellation(self):
        word = i_signature((3, 1), 2, 1)
        assert word.raw_text() == "+-"
        assert word.reduced_text() == ""

    def test_empty_partition(self):
        assert i_signature((), 3, 0).reduced_text() == "+"

    def test_reduced_shape_minus_then_plus(self):
        for p in regular_up_to(12, 3):
            for i in range(3):
                text = i_signature(p, 3, i).reduced_text()
                assert "+-" not in text and "-" not in text.lstrip("-")


class TestEpsPhi:
    def test_examples(self):
        assert eps_phi((2,), 2, 1) == (1, 1)
        assert eps_phi((2, 1), 2, 1) == (2, 0)
        assert eps_phi((), 3, 0) == (0, 1)
        assert eps_phi((), 2, 0) == (0, 1)

    def test_counts_match_operator_support(self):
        for p in regular_up_to(10, 3):
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

    def test_inverse_relations_up_to_14(self):
        for n in (2, 3, 4):
            for p in regular_up_to(14, n):
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
            for p in regular_up_to(12, n):
                for i in range(n):
                    down = f_tilde(p, n, i)
                    if down is None:
                        continue
                    eps, phi = eps_phi(p, n, i)
                    assert eps_phi(down, n, i) == (eps + 1, phi - 1)

    def test_weight_compatibility_up_to_14(self):
        # phi - eps is the i-th weight coefficient; edges shift by a simple root
        for n in (2, 3, 4):
            for p in regular_up_to(14, n):
                w = weight_of(p, n)
                eps = epsilon_vector(p, n)
                phi = phi_vector(p, n)
                for i in range(n):
                    assert phi[i] - eps[i] == w.lam[i]
                    down = f_tilde(p, n, i)
                    if down is not None:
                        assert weight_of(down, n) == w - simple_root(n, i)


class TestComponent:
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
            expected = {p for p in regular_up_to(10, n)}
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
        g = build_component(3, 8)
        for src, i, dst in g.edges:
            assert weight_of(dst, 3) == weight_of(src, 3) - simple_root(3, i)

    def test_operators_defined_beyond_regular_set(self):
        # the full Fock operators act on every partition
        assert f_tilde((1, 1), 2, 0) == (1, 1, 1)
        assert not is_n_regular((1, 1, 1), 2)


class TestExports:
    def test_dot_marks_exactly_the_chain_members(self):
        g = build_component(3, 8)
        dot = g.to_dot()
        starred = set()
        for line in dot.splitlines():
            if "[label=" in line and "->" not in line:
                name = line.split('"')[1]
                label = line.split('"')[3]
                if label.endswith("*"):
                    starred.add(name)
                assert label.rstrip("*") == name
        from slnbranch import format_partition, parse_partition

        for p in g.vertices:
            assert (format_partition(p) in starred) == is_js(p, 3)
        for name in starred:
            assert is_js(parse_partition(name), 3)

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
        assert a.to_json() == b.to_json()
