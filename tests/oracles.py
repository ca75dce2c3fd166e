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
before the block sweep) and `two_pass_row_choices` (the row step that
copies the content, then takes the row off it).  `eps_prefix` and
`eps_close` are the crystal route's content-walk tests from before the
block sweep; `listed_series` lists each class with them.
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


def residue_class(p, n: int, j: int):
    """The sorted label pair (k, j - k) of the class of p for index j, read from its content.

    The members of class (j, k) with d residue-0 nodes have the content
    `class_residue_counts(n, j, k)` + d (1, ..., 1); None when p's content
    is that of no class.
    """
    from slnbranch.branching import class_residue_counts
    from slnbranch.partitions import residue_counts

    m = residue_counts(p, n)
    base = tuple(c - m[0] for c in m)
    for k in range(n):
        if class_residue_counts(n, j, k) == base:
            return tuple(sorted((k, (j - k) % n)))
    return None


def settled_eps_prefix(n: int, j: int):
    """The crystal route's prefix test without its look-ahead: settled rows only.

    The reference `eps_prefix` is checked against.  Its value for
    a row is (eps_j, plus), the eps_j and surviving "+" counts of the rows
    above the candidate, whose removable nodes are settled; it cuts only
    where a settled node raises eps past e_j (with `CUT_ROW`, as that node
    does not depend on the candidate), never ahead of the node.  It reads
    the run of the row above only as run == 1, as the walk's contract asks.
    """
    from slnbranch.cores import CUT_ROW

    def prefix(v, v1, run, r, above):
        if above is None:
            return 0, (0,) * n
        if v1 == v and run != 1:
            return above
        eps, plus = above
        plus = list(plus)
        if v1 > v:
            x = (v1 - r) % n
            if plus[x]:
                plus[x] -= 1
            elif x != j or eps:
                return CUT_ROW
            else:
                eps = 1
        if run == 1:
            plus[(v1 + 1 - r) % n] += 1
        return eps, tuple(plus)

    return prefix


def settled_eps_close(n: int, j: int):
    """The closing test of `settled_eps_prefix`: the last row's node leaves eps = e_j."""

    def close(v, r, value):
        eps, plus = value
        x = (v - r - 1) % n
        return eps == 1 if plus[x] else x == j and not eps

    return close


def eps_prefix(n: int, j: int):
    """Carry the eps of the rows above a candidate row; falsy once no completion can reach e_j.

    The library's earlier crystal prefix test, kept as a reference: the
    crystal route counted with it on the content walk before the block
    sweep, and `listed_series` lists with it.

    Returns the content walk's prefix test prefix(v, v1, run, r, above),
    bound to n and j, whose arguments are checked here.  Its window holds
    the candidate part v, the part v1 of the row above, the length of that
    row's run so far, the candidate's row index r mod n, and `above`, this
    test's value for the row above (None for the first row).  The rows
    above the candidate have their lower neighbours placed, so their
    removable nodes are settled, and a surviving "-" is cancelled only by a
    "+" above it.  Their eps vector is therefore a lower bound for the eps
    vector of every partition that begins with them.

    It runs one step of `crystal._scan`.  Its value for a row is (eps_j, plus,
    settles): the eps vector of the settled rows, which is eps_j e_j on
    every prefix that passes, their count of surviving "+" per residue, and
    the bitmask of the residues whose "-" they can absorb, those with a
    surviving "+" and j while eps_j is 0.  The first row settles nothing.
    Each later candidate settles the row above it (row r, counted from 1),
    whose removable node, there when v1 > v, cancels a "+" of its residue
    or else raises eps, and whose addable node, there when it starts its
    run (run == 1), adds a "+".  Inside a run neither is there, and the
    value is `above` itself.  The removable node's residue x = (v1 - r) mod n
    does not depend on v, so when it would raise eps past e_j every v < v1
    fails alike and the test returns `CUT_ROW`.

    The look-ahead: the run through the candidate, of length L so far,
    ends within its next n - 1 - L rows, so its "-" lands on a residue
    (v - r - 1 - t) mod n with t < n - L, and no row before its end settles
    a node.  When `settles` holds none of those residues, no completion
    reaches e_j and the candidate alone is cut, with None; the next row
    step or `eps_close` would read the same node against the same counts.
    (The run's addable node is on none of those residues.)  The test reads
    v1 only through v == v1, v < v1 and v1 mod n, and for v < v1, where
    L = 1, it reads run only as run == 1, as the contract asks.
    """
    from slnbranch.cores import CUT_ROW
    from slnbranch.partitions import check_residue

    check_residue(n, j)
    # ends[x][L]: the residues x - 1 - t, t < n - L, as a bitmask; none
    # for L = n, a run the walk never offers.
    ends = [
        [sum(1 << (x - 1 - t) % n for t in range(n - L)) for L in range(n + 1)] for x in range(n)
    ]
    first = (0, (0,) * n, 1 << j)

    def prefix(v, v1, run, r, above):
        if above is None:
            value, length = first, 1
        elif v == v1 and run != 1:
            value, length = above, run + 1
        else:
            eps, plus, settles = above
            plus = list(plus)
            length = 2 if v == v1 else 1
            if v1 > v:
                x = (v1 - r) % n
                if plus[x]:
                    plus[x] -= 1
                    if not plus[x] and (x != j or eps):
                        settles ^= 1 << x
                elif x != j or eps:
                    return CUT_ROW  # x does not depend on v: every v < v1 fails
                else:
                    eps = 1
                    settles ^= 1 << j
            if run == 1:
                x = (v1 + 1 - r) % n
                plus[x] += 1
                settles |= 1 << x
            value = eps, tuple(plus), settles
        return value if value[2] & ends[(v - r) % n][length] else None

    return prefix


def eps_close(n: int, j: int):
    """Whether the last row of a walked partition leaves eps = e_j.

    The library's earlier crystal closing test, kept with `eps_prefix`.

    Returns the content walk's closing test close(v, r, value), bound to n
    and j, whose arguments are checked here.  The empty row below the last
    row (index r mod n from 0, part v) settles its removable node.  `value`
    is the `eps_prefix` value for that row; the node cancels a surviving "+"
    of its residue, leaving eps as it was, or else raises eps_j from 0.
    Either way eps must end at e_j.
    """
    from slnbranch.partitions import check_residue

    check_residue(n, j)

    def close(v, r, value):
        eps, plus, _ = value
        x = (v - r - 1) % n
        return eps == 1 if plus[x] else x == j and not eps

    return close


def listed_series(n: int, j: int, k: int, order: int) -> dict:
    """Reference for the two counting routes: list each class bucket, then filter its leaves.

    For each d it lists the members of the class (j, k) content with d
    residue-0 nodes that the listing walk yields under each route's prefix
    test, and counts those that pass the route's membership test, as the
    routes did before they counted.  The prefix tests only prune (the tests
    check that against the unpruned walk), so this reaches orders that
    `filtered_bucket_series` cannot.
    """
    from slnbranch.branching import class_residue_counts, fow_prefix, in_fow
    from slnbranch.cores import regular_partitions_with_content

    j %= n
    routes = {
        "fow": (fow_prefix(n, j), in_fow),
        "crystal": (eps_prefix(n, j), crystal_member),
    }
    coeffs = {route: [0] * (order + 1) for route in routes}
    base = class_residue_counts(n, j, k)
    for d in range(order + 1):
        counts = [c + d for c in base]
        for route, (prefix, member) in routes.items():
            walk = regular_partitions_with_content(n, counts, prefix)
            coeffs[route][d] = sum(1 for p in walk if member(p, n, j))
    return {route: tuple(c) for route, c in coeffs.items()}


def filtered_bucket_series(n: int, j: int, k: int, order: int) -> dict:
    """Reference for the three enumeration routes: filter whole class buckets.

    For each d it walks every n-regular partition of the residue content of
    class (j, k) with d residue-0 nodes, unpruned, and counts those that
    pass each route's membership test.  Unlike the rest of this module it
    uses the package's own bucket walk and membership tests, which the
    tests check against brute-force enumeration; what it leaves out is the
    block sweeps of the routes under test.
    """
    from slnbranch.branching import class_residue_counts, in_fow, in_path_set
    from slnbranch.cores import regular_partitions_with_content

    members = {"paths": in_path_set, "fow": in_fow, "crystal": crystal_member}
    coeffs = {route: [0] * (order + 1) for route in members}
    j %= n
    base = class_residue_counts(n, j, k)
    for d in range(order + 1):
        for p in regular_partitions_with_content(n, [c + d for c in base]):
            for route, member in members.items():
                coeffs[route][d] += member(p, n, j)
    return {route: tuple(c) for route, c in coeffs.items()}


def prefix_steps(prefix, p, n: int):
    """Carry a content-walk prefix test down the rows of p, as the walk does.

    Each row's call gets the walk's window: the row's part, the part above
    it (None for the first row), the length of that row's run of equal
    parts (0 for the first row), the row's 0-based index mod n, and the
    value returned for the row above (None for the first row).  The runs
    are counted off p here, by comparing neighbours, not carried as the
    walk carries them.  Yields each row's window (v1, run, r, above) and
    value, down to the first falsy value.
    """
    above = None
    run = 0
    for r, v in enumerate(p):
        v1 = p[r - 1] if r else None
        window = (v1, run, r % n, above)
        above = prefix(v, *window)
        yield window, above
        if not above:
            return
        run = run + 1 if v == v1 else 1


def prefix_value(prefix, p, n: int):
    """The value of `prefix_steps` for the last row, or its first falsy value.

    True for the empty partition, which the walk yields untested.
    """
    value = True
    for _, value in prefix_steps(prefix, p, n):
        pass
    return value


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


def two_pass_row_choices(n: int, content, left: int, spread: int, r: int, v1, run: int, above, prefix):
    """The library's earlier `cores._row_choices`, kept as a reference for its one-pass row step.

    It reads the residue cap by a scan over every residue, copies the
    content, and takes the row off the copy in a second pass.
    """
    from slnbranch.cores import CUT_ROW

    cap = n - 1
    top = left if v1 is None else v1 - (run == cap)
    start = -r % n
    a = min(left, top, min(n * content[x] + (x - start) % n for x in range(n)))
    if a <= 0 or 2 * left > cap * a * (a + 1):
        return []
    rem = list(content)
    full, extra = divmod(a, n)
    if extra:
        end = (start + extra) % n
        spread += 2 * (rem[start - 1] - rem[start] + rem[end] - rem[end - 1]) + 2
    for x in range(n):
        rem[x] -= full
    for t in range(extra):
        rem[(start + t) % n] -= 1
    left -= a
    below = (start - 1) % n
    index = r % n
    choices = []
    while True:
        if spread <= 2 * rem[below]:
            value = True if prefix is None else prefix(a, v1, run, index, above)
            if value:
                choices.append((a, run + 1 if a == v1 else 1, value, left, spread, tuple(rem)))
            elif value is CUT_ROW:
                break
        x = (a - 1 - r) % n
        spread += 2 * (2 * rem[x] - rem[x - 1] - rem[(x + 1) % n] + 1)
        rem[x] += 1
        left += 1
        a -= 1
        if not a or 2 * (left + a) > cap * a * (a + 1):
            break
    return choices
