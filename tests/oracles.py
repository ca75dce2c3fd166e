"""Independent oracles used to pin expected values in the tests.

Everything here is implemented from scratch, without going through the
package's own algorithms, so that each check genuinely has two routes.
Among them are the two references the crystal and paths kernels are
compared against:

- `signature_word` with `add_cell` and `remove_cell`: the word form of the
  i-signature, read off the diagram's cells node by node, and the node
  edits that the crystal operators make;
- `path_coordinates` with `dominant_path`: the weight path of a partition,
  column by column, and the scan of every coordinate for dominance.

`simple_root` and `weight_difference` are the weight arithmetic that the
crystal checks no longer need, now that they compare residue contents;
the tests use them to check edges against alpha_i in weight coordinates.

The library's earlier kernels are kept here as references for the ones
that replaced them: `column_walk_in_path_set` (one path step per column,
read off `conjugate`), `position_scan_pushed_partition` (every abacus
position up to the last bead), `successor_partitions` (the successor
rule that rebuilds the tail of the list at each step),
`two_pass_fow_index` (a regularity pass, then the congruence on the
exponent form), `product_lattice_sum` (each lattice-sum term a
truncated product of 1/(q)_{m_i} series, in place of dividing one list),
`rescan_configuration_sums` (the transfer matrix that steps the weight of
every state and scans each series for its lowest power, the paths route
before the block sweep) and `class_residue_counts` (the residue content
of a branching class, by which `residue_class` names a partition's
class).  `uncapped_content_route` is the block count's content route
without its size cut; `size_capped_route` adds a size cut to any route,
and `walk_blocks` steps one partition's blocks through a route by hand.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def partition_number(m: int) -> int:
    """p(m) by Euler's pentagonal-number recurrence."""
    if m < 0:
        return 0
    if m == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > m and g2 > m:
            break
        sign = 1 if k % 2 else -1
        total += sign * (partition_number(m - g1) + partition_number(m - g2))
        k += 1
    return total


def multipartition_counts(colours: int, order: int) -> tuple:
    """Coefficients of prod_{k >= 1} (1 - q^k)^(-colours) up to q^order.

    Coefficient w counts the `colours`-multipartitions of w: one integer
    pass per colour and part, with nothing enumerated.
    """
    counts = [1] + [0] * order
    for _ in range(colours):
        for k in range(1, order + 1):
            for s in range(k, order + 1):
                counts[s] += counts[s - k]
    return tuple(counts)


def brute_partitions(m: int, max_part: int | None = None):
    """All partitions of m by recursive descent on the largest part."""
    if max_part is None:
        max_part = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in brute_partitions(m - first, first):
            yield (first,) + rest


def naive_residue_counts(p, n):
    """Residue census by walking every node of the diagram."""
    counts = [0] * n
    for i, part in enumerate(p, start=1):
        for j in range(1, part + 1):
            counts[(j - i) % n] += 1
    return tuple(counts)


def naive_conjugate(p):
    """Column lengths read off a dense boolean diagram."""
    if not p:
        return ()
    grid = [[c < part for c in range(p[0])] for part in p]
    cols = []
    for c in range(p[0]):
        cols.append(sum(1 for row in grid if row[c]))
    return tuple(cols)


def conjugate(p):
    """Column lengths by one pointer walking up from the last row."""
    if not p:
        return ()
    out = []
    rows = len(p)
    for j in range(1, p[0] + 1):
        while p[rows - 1] < j:
            rows -= 1
        out.append(rows)
    return tuple(out)


def _regular(p, n: int) -> bool:
    return all(count < n for count in Counter(p).values())


def successor_partitions(m: int, regular: int | None = None):
    """Partitions of m in decreasing lex: lower the last part above 1, refill greedily."""
    if m < 0:
        return
    if m == 0:
        yield ()
        return
    a = [m]
    while True:
        if regular is None or _regular(a, regular):
            yield tuple(a)
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        v = a[j] - 1
        rem = len(a) - j
        a = a[:j] + [v]
        while rem > 0:
            c = min(v, rem)
            a.append(c)
            rem -= c


@lru_cache(maxsize=None)
def count_parts_at_most(m: int, k: int) -> int:
    """Partitions of m into parts of size at most k."""
    if m == 0:
        return 1
    if k == 0 or m < 0:
        return 0
    return count_parts_at_most(m, k - 1) + count_parts_at_most(m - k, k)


def _remove_one_rim_hook(parts: tuple, n: int):
    """Remove some rim hook of n cells from the diagram boundary, or None.

    A removal spanning rows a..b keeps row_i = parts[i+1] - 1 for a <= i < b
    and takes the remaining cells off the end of row b; consecutive strip
    rows then overlap in exactly one column, which is the border-strip shape
    condition.
    """
    rows = len(parts)
    for a in range(rows):
        removed_above = 0
        for b in range(a, rows):
            rem = n - removed_above
            below = parts[b + 1] if b + 1 < rows else 0
            if 1 <= rem <= parts[b] - below:
                new = (
                    list(parts[:a])
                    + [parts[i + 1] - 1 for i in range(a, b)]
                    + [parts[b] - rem]
                    + list(parts[b + 1 :])
                )
                return tuple(x for x in new if x > 0)
            if b + 1 >= rows:
                break
            removed_above += parts[b] - parts[b + 1] + 1
            if removed_above >= n:
                break
    return None


def rim_hook_core(p: tuple, n: int) -> tuple:
    """n-core by greedy rim-hook stripping (independent of the abacus)."""
    return _strip_rim_hooks(p, n)[0]


def rim_hook_weight(p: tuple, n: int) -> int:
    """Number of rim n-hooks greedy stripping removes on the way to the n-core."""
    return _strip_rim_hooks(p, n)[1]


def _strip_rim_hooks(p: tuple, n: int) -> tuple:
    hooks = 0
    while True:
        smaller = _remove_one_rim_hook(p, n)
        if smaller is None:
            return p, hooks
        p = smaller
        hooks += 1


def abacus_core(p: tuple, n: int, beads: int | None = None) -> tuple:
    """n-core from beta numbers, pushed and sorted: the package's `abacus_display`,
    or with `beads` given, the beta numbers part_i + beads - i read here.

    The library's earlier n-core, kept as a reference for the integer pass.
    """
    if beads is None:
        from slnbranch import abacus_display

        beta = abacus_display(p, n)
    else:
        padded = list(p) + [0] * (beads - len(p))
        beta = [part + beads - i for i, part in enumerate(padded, start=1)]
    runner_counts = [0] * n
    for b in beta:
        runner_counts[b % n] += 1
    pushed = sorted(
        (r + q * n for r in range(n) for q in range(runner_counts[r])), reverse=True
    )
    count = len(pushed)
    parts = [b - (count - i) for i, b in enumerate(pushed, start=1)]
    return tuple(part for part in parts if part > 0)


def position_scan_pushed_partition(runners) -> tuple:
    """The partition of an abacus with runners[r] beads at the top of runner r.

    Scans every position up to the last bead; a bead's part is the number
    of empty positions below it.
    """
    n = len(runners)
    end = max(r + n * (count - 1) + 1 for r, count in enumerate(runners))
    parts = []
    gaps = 0
    for b in range(end):
        if b // n < runners[b % n]:
            if gaps:
                parts.append(gaps)
        else:
            gaps += 1
    return tuple(reversed(parts))


def filtered_n_cores(n: int, max_size: int) -> list:
    """Every n-core of size at most max_size: all partitions, filtered, decreasing lex per size."""
    return [
        mu
        for size in range(max_size + 1)
        for mu in brute_partitions(size)
        if abacus_core(mu, n) == mu
    ]


def charge_vector(p: tuple, n: int) -> tuple:
    """x_r = (beads on runner r) - L on an abacus of nL beads, L = ceil(len(p) / n)."""
    layers = -(-len(p) // n)
    beads = n * layers
    padded = list(p) + [0] * (beads - len(p))
    counts = [0] * n
    for i, part in enumerate(padded, start=1):
        counts[(part + beads - i) % n] += 1
    return tuple(c - layers for c in counts)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _shell_lower_bound(n: int, shell: int) -> Fraction:
    """Certified lower bound for the quadratic exponent on |m|_1 = shell.

    Uses m^T C^{-1} m >= |m|_2^2 / 4 >= shell^2 / (4(n-1)) (the largest
    Cartan eigenvalue is below 4) and C^{-1} entries <= n/4 for the linear
    term.
    """
    return Fraction(shell * shell, 4 * (n - 1)) - Fraction(n * shell, 4)


def lattice_enumeration_bound(n: int, order: int) -> int:
    """A shell size beyond which every lattice vector exceeds the order."""
    shell = n * (n - 1) // 2 + 1  # past the vertex of the bounding parabola
    while _shell_lower_bound(n, shell) <= order:
        shell += 1
    return shell


def fraction_inverse_cartan(n: int):
    """C^{-1} of sl(n) in Fractions: entry (i,j) = min(i,j) - ij/n."""
    return [
        [Fraction(min(i, j)) - Fraction(i * j, n) for j in range(1, n)]
        for i in range(1, n)
    ]


def fraction_exponent(inv, s: int, t: int, m) -> Fraction:
    """Q(m) = m^T C^{-1} m - m^T C^{-1} e_{s-t+n} + s*t/n in Fractions (e_n = 0)."""
    n = len(inv) + 1
    quad = sum(
        inv[i][j] * mi * mj
        for i, mi in enumerate(m) if mi
        for j, mj in enumerate(m) if mj
    )
    u = s - t + n
    linear = sum(inv[i][u - 1] * mi for i, mi in enumerate(m)) if u < n else 0
    return quad - linear + Fraction(s * t, n)


def shell_lattice_points(n: int, s: int, t: int, order: int, bound: int | None = None):
    """Reference lattice walk: every composition of every L1 shell up to the bound.

    Returns the sorted (m, Q) pairs with m admissible and Q <= order, after
    folding (s, t) into s + t <= n; `bound` defaults to the certified shell
    bound, and enlarging it must not add points.
    """
    if s + t > n:
        s, t = n - t, n - s
    if bound is None:
        bound = lattice_enumeration_bound(n, order)
    inv = fraction_inverse_cartan(n)
    points = []
    for shell in range(bound + 1):
        for m in _compositions(shell, n - 1):
            if (t + sum((i + 1) * mi for i, mi in enumerate(m))) % n:
                continue
            q = fraction_exponent(inv, s, t, m)
            if q <= order:
                assert q.denominator == 1 and q >= 0, (n, s, t, m, q)
                points.append((m, int(q)))
    return sorted(points)


def _truncated_product(a: list, b: list, order: int) -> list:
    """Coefficients of a * b up to q^order, by convolution."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i], i):
                out[j] += x * y
    return out


def product_lattice_sum(points, order: int) -> tuple:
    """sum q^Q / prod((q)_{m_i}) over (m, Q) pairs, each term a product of series.

    Each term multiplies the series 1/(q)_{m_i}, whose coefficient of q^d
    counts the partitions of d into parts at most m_i, by truncated
    convolution: O(order^2) per factor, and no division by (1 - q^i)
    anywhere.  A pair with Q > order adds nothing below q^order and is
    skipped; a negative Q raises ValueError.
    """
    total = [0] * (order + 1)
    for m, q in points:
        if q < 0:
            raise ValueError(f"exponent must be nonnegative, got Q={q}")
        if q > order:
            continue
        top = order - q
        term = [1] + [0] * top
        for mi in m:
            if mi:
                factor = [count_parts_at_most(d, mi) for d in range(top + 1)]
                term = _truncated_product(term, factor, top)
        for d, c in enumerate(term, q):
            total[d] += c
    return tuple(total)


def crystal_member(p, n: int, j: int) -> bool:
    """Eps-profile membership for index j of an n-regular partition: eps(p) = e_j, or p empty."""
    from slnbranch.crystal import eps_index

    return not p or eps_index(p, n) == j


def class_residue_counts(n: int, j: int, k: int) -> tuple:
    """Residue counts forced on weight-class (j, k) members with no residue-0 node.

    Writing the class condition as a cyclic second-difference equation in the
    counts m_0..m_{n-1}, the class pins m up to a constant shift and the
    energy pins the shift (m_0 = d): the members with d residue-0 nodes all
    have this census plus d (1, ..., 1).  Entries may be negative; a d that
    leaves one negative has no member.  The library's earlier class census,
    kept to name a partition's class from its content.
    """
    j %= n
    k %= n
    b = [0] * n
    b[0] += 1
    b[j] += 1
    b[k] -= 1
    b[(j - k) % n] -= 1
    prefix = []
    acc = 0
    for r in range(1, n):
        acc += b[r]
        prefix.append(acc)
    total = sum(prefix)
    if total % n:
        raise ArithmeticError(f"class (j={j}, k={k}) has no integral census for n={n}")
    g = total // n
    base = [0]
    for r in range(n - 1):
        base.append(base[-1] + g)
        g -= b[r + 1]
    return tuple(base)


def residue_class(p, n: int, j: int):
    """The sorted label pair (k, j - k) of the class of p for index j, read from its content.

    The members of class (j, k) with d residue-0 nodes have the content
    `class_residue_counts(n, j, k)` + d (1, ..., 1); None when p's content
    is that of no class.
    """
    from slnbranch.partitions import residue_counts

    m = residue_counts(p, n)
    base = tuple(c - m[0] for c in m)
    for k in range(n):
        if class_residue_counts(n, j, k) == base:
            return tuple(sorted((k, (j - k) % n)))
    return None


def uncapped_content_route(n: int) -> tuple:
    """`cores._content_route` with no size cut: the state is (diffs, rho).

    Reference for the size cap: a sweep of it counts every partition of
    each content up to the sweep's order, whatever its size.
    """
    from operator import add

    from slnbranch.cores import _block_diffs

    table = _block_diffs(n)

    def step(state, v, a):
        diffs, rho = state
        return tuple(map(add, diffs, table[v % n][rho][a])), (rho + a) % n

    return ((0,) * (n - 1), 0), step, lambda state: state[0]


def size_capped_route(route, max_size: int) -> tuple:
    """A route (start, step, close) that also cuts every block taking the size past max_size.

    The state is (inner state, size, rho), rho copied from the inner
    state's last field, which the sweep and the listing read as rho.
    """
    start, step, close = route

    def capped_step(state, v, a):
        inner, size, _ = state
        size += v * a
        if size > max_size:
            return None
        after = step(inner, v, a)
        return None if after is None else (after, size, after[-1])

    return (start, 0, start[-1]), capped_step, lambda state: close(state[0])


def walk_blocks(route, p):
    """The state after stepping p's blocks (v, a), largest part first, through route; None if cut."""
    from slnbranch.partitions import exponent_form

    start, step, _ = route
    state = start
    for v, a in exponent_form(p):
        state = step(state, v, a)
        if state is None:
            return None
    return state


def filtered_bucket_series(n: int, j: int, k: int, order: int) -> dict:
    """Reference for the three enumeration routes: filter whole class buckets.

    For each d it takes every n-regular partition of the residue content
    of class (j, k) with d residue-0 nodes, from the unpruned listing of
    its size, and counts those that pass each route's membership test.
    Unlike the rest of this module it uses the package's own listing and
    membership tests, which the tests check against brute-force
    enumeration; what it leaves out is the block sweeps of the routes under
    test.
    """
    from slnbranch.branching import in_fow, in_path_set

    members = {"paths": in_path_set, "fow": in_fow, "crystal": crystal_member}
    coeffs = {route: [0] * (order + 1) for route in members}
    j %= n
    base = class_residue_counts(n, j, k)
    for d in range(order + 1):
        counts = tuple(c + d for c in base)
        for p in _regular_by_content(n, sum(counts)).get(counts, ()):
            for route, member in members.items():
                coeffs[route][d] += member(p, n, j)
    return {route: tuple(c) for route, c in coeffs.items()}


@lru_cache(maxsize=None)
def _regular_by_content(n: int, size: int) -> dict:
    """The n-regular partitions of `size`, bucketed by residue content."""
    from slnbranch.partitions import partitions_of, residue_counts

    buckets: dict = {}
    for p in partitions_of(size, regular=n):
        buckets.setdefault(residue_counts(p, n), []).append(p)
    return buckets


def _cells(p) -> set:
    """The diagram of p as a set of 1-based (row, col) cells."""
    return {(r, c) for r, part in enumerate(p, start=1) for c in range(1, part + 1)}


def _shape(cells) -> tuple:
    """The row lengths of a diagram given by its cells."""
    rows = max((r for r, _ in cells), default=0)
    return tuple(sum(1 for r, _ in cells if r == row) for row in range(1, rows + 1))


def signature_word(p, n: int, i: int):
    """The i-signature of p: (raw, reduced) lists of ((row, col), sign).

    A cell of residue (col - row) mod n is addable ("+") when it lies
    outside the diagram with its upper and left neighbours inside (or off
    the edge), and removable ("-") when it lies inside with its lower and
    right neighbours outside.  The raw word lists them by row; the reduced
    word is left once no "+" stands directly before a "-".
    """
    cells = _cells(p)
    raw = []
    for row in range(1, len(p) + 2):
        for col in range(1, (p[0] if p else 0) + 2):
            if (col - row) % n != i:
                continue
            if (row, col) in cells:
                if (row + 1, col) not in cells and (row, col + 1) not in cells:
                    raw.append(((row, col), "-"))
            elif (row == 1 or (row - 1, col) in cells) and (
                col == 1 or (row, col - 1) in cells
            ):
                raw.append(((row, col), "+"))
    reduced = list(raw)
    while True:
        pairs = [
            k for k in range(len(reduced) - 1)
            if reduced[k][1] == "+" and reduced[k + 1][1] == "-"
        ]
        if not pairs:
            return raw, reduced
        del reduced[pairs[0] : pairs[0] + 2]


def add_cell(p, cell) -> tuple:
    """p with `cell` added to its diagram."""
    return _shape(_cells(p) | {cell})


def remove_cell(p, cell) -> tuple:
    """p with `cell` taken out of its diagram."""
    return _shape(_cells(p) - {cell})


def epsilon_step(n: int, i: int) -> tuple:
    """L(i+1) - L(i) as an L-coefficient vector, indices mod n."""
    lam = [0] * n
    lam[(i + 1) % n] += 1
    lam[i % n] -= 1
    return tuple(lam)


def simple_root(n: int, i: int):
    """alpha_i = -L(i-1) + 2*L(i) - L(i+1) (+ delta for i = 0), as a (lam, delta) pair."""
    lam = [0] * n
    lam[(i - 1) % n] -= 1
    lam[i % n] += 2
    lam[(i + 1) % n] -= 1
    return tuple(lam), 1 if i % n == 0 else 0


def weight_difference(a, b):
    """a - b for two (lam, delta) weights of one rank, coefficient by coefficient."""
    (lam_a, delta_a), (lam_b, delta_b) = a, b
    if len(lam_a) != len(lam_b):
        raise ValueError(f"mixed ranks: n={len(lam_a)} vs n={len(lam_b)}")
    return tuple(x - y for x, y in zip(lam_a, lam_b)), delta_a - delta_b


def path_coordinates(p, n: int, j: int) -> list:
    """The weight path p_0..p_{lambda_1} of p as L-coefficient vectors.

    p_{lambda_1} = L(j) + L(lambda_1 mod n), and each column k, of length
    c_k (the rows reaching it), gives p_{k-1} = p_k - (L(e+1) - L(e)) with
    e = (k - 1 - c_k) mod n.
    """
    width = p[0] if p else 0
    top = [0] * n
    top[j % n] += 1
    top[width % n] += 1
    coords = [tuple(top)]
    for k in range(width, 0, -1):
        length = sum(1 for part in p if part >= k)
        step = epsilon_step(n, k - 1 - length)
        coords.append(tuple(a - b for a, b in zip(coords[-1], step)))
    return coords[::-1]


def dominant_path(p, n: int, j: int) -> bool:
    """True iff every coordinate of the path has no negative L-coefficient."""
    return all(min(lam) >= 0 for lam in path_coordinates(p, n, j))


def column_walk_in_path_set(p, n: int, j: int) -> bool:
    """Path-set membership with one step per column, each lowering one coefficient."""
    if not _regular(p, n):
        return False
    if not p:
        return True
    conj = conjugate(p)
    lam = [0] * n
    lam[j % n] += 1
    lam[p[0] % n] += 1
    for k in range(p[0], 0, -1):
        e = (k - 1 - conj[k - 1]) % n
        lam[(e + 1) % n] -= 1
        lam[e] += 1
        if lam[(e + 1) % n] < 0:
            return False
    return True


def two_pass_fow_index(p, n: int):
    """The chain-congruence index of p, else None: n-regularity first, then the pairs of runs.

    The library's earlier `fow_index`, kept as a reference for its one-pass walk.
    """
    from slnbranch import exponent_form, is_n_regular

    if not is_n_regular(p, n):
        return None
    ef = exponent_form(p)
    if not ef:
        return 0
    for (v1, a1), (v2, a2) in zip(ef, ef[1:]):
        if (a1 + v1 - v2 + a2) % n:
            return None
    return (ef[0][0] - ef[0][1]) % n


def rescan_configuration_sums(n: int, j: int, order: int) -> dict:
    """The library's earlier `configuration_sums`, kept as a reference for the paths route.

    The transfer matrix over the columns of a partition, before the block
    sweep replaced it.  Every state steps its own weight, finds its lowest
    nonzero power by a scan, and adds series term by term.
    """
    j %= n
    size = order + 1
    sums = {}
    layer = {}
    for rho in range(n):
        lam = [0] * n
        lam[j] += 1
        lam[rho] += 1
        layer[(tuple(lam), 0, rho)] = [1] + [0] * order
    while layer:
        ahead = {}
        for (lam, c, i), series in layer.items():
            if not i:
                total = sums.setdefault(lam, [0] * size)
                for d in range(size):
                    total[d] += series[d]
            low = next(d for d in range(size) if series[d])
            zero = (i - 1) % n
            for c2 in range(max(c, 1), c + n):
                z = (c2 - zero + n - 1) // n
                if low + z > order:
                    break
                e = (i - 1 - c2) % n
                if not lam[(e + 1) % n]:
                    continue
                step = list(lam)
                step[(e + 1) % n] -= 1
                step[e] += 1
                key = (tuple(step), c2, (i - 1) % n)
                out = ahead.get(key)
                if out is None:
                    ahead[key] = [0] * z + series[: size - z]
                else:
                    for d in range(low + z, size):
                        out[d] += series[d - z]
        layer = ahead
    return sums
