"""Summand-step laws: cumulants, conjugates, samplers.

Gradients and Hessians are checked against central finite differences of
the cgf itself; the Gaussian conjugate against a numerical quadrature of
the defining supremum is unnecessary because the Gaussian case has an exact
algebraic answer, so instead it is cross-checked against a direct dense
solve. Sampler checks use seeded generators and standard-error bands.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from compound_deviations import summands
from compound_deviations.counting import PoissonCounting
from compound_deviations.dualpair import CovarianceOperator
from compound_deviations.errors import (
    DimensionMismatchError,
    ValidationError,
)
from compound_deviations.summands import (
    MASS_TABLE_CAP,
    TABLE_STAGE_STATES,
    TOP_UNIFORM,
    UNIFORM_STEP,
    FiniteSupportSummands,
    GaussianSummands,
    _binomial_windows,
    _CdfGuide,
    _GuideTable,
    grid_finite_support,
    grid_gaussian,
    invert_cdf,
)
from compound_deviations.variational import legendre_transform


def fd_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hess(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return out


@pytest.fixture
def two_atom_plane():
    return FiniteSupportSummands([[1.0, 0.0], [0.0, 2.0]], [0.4, 0.6])


@pytest.fixture
def gaussian_2d():
    return GaussianSummands([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])


class TestFiniteSupportConstruction:
    def test_rejects_bad_probs(self):
        with pytest.raises(ValidationError):
            FiniteSupportSummands([[1.0], [2.0]], [0.5, 0.6])
        with pytest.raises(ValidationError):
            FiniteSupportSummands([[1.0], [2.0]], [1.0, 0.0])

    @pytest.mark.parametrize("build", [
        lambda: FiniteSupportSummands([[0.0, 0.0], [1.0, 1.0]], [0.3, 0.7]),
        lambda: FiniteSupportSummands([[1.0, 1.0], [2.0, 2.0]], [0.5, 0.5]),
        lambda: FiniteSupportSummands(np.vstack([np.zeros(3), np.eye(3)[:2]]),
                                      [0.2, 0.3, 0.5]),
        lambda: grid_finite_support([0.0, 0.5, 1.0],
                                    [lambda s: 0.0, lambda s: s, lambda s: s * s],
                                    [0.2, 0.5, 0.3]),
    ], ids=["origin-and-diagonal", "collinear-pair", "zero-and-two-axes-3d",
            "grid-with-a-zero-path"])
    def test_accepts_linearly_dependent_atoms_when_few(self, build):
        # At most dim atoms that are linearly dependent yet affinely
        # independent: a valid law, whose mixture coefficients are unique.
        mx = build()
        rng = np.random.default_rng(21)
        reps, k = 20_000, 10
        sums = mx.sample_sum_batch(rng, np.full(reps, k))
        se = np.sqrt(np.diag(mx.cov().matrix) * k / reps)
        assert np.all(np.abs(sums.mean(axis=0) - k * mx.mean()) <= 5.0 * se)
        for c in rng.dirichlet(np.full(mx.atom_count, 2.0), size=5):
            x = c @ mx.atoms
            assert_allclose(mx.conjugate_closed_form(x),
                            legendre_transform(mx.cumulant, x).value, rtol=1e-8)

    @pytest.mark.parametrize("atoms, probs, message", [
        ([1.0, -1.0], [0.5, 0.5], r"atoms must be a 2-d array, got shape \(2,\)"),
        ([[1.0], [math.inf]], [0.5, 0.5], "atoms must be finite"),
        (np.zeros((0, 1)), [], "need at least one atom in at least one dimension"),
        ([[1.0], [-1.0]], [0.2, 0.3, 0.5],
         r"probs must have shape \(2,\) to match 2 atoms, got \(3,\)"),
    ], ids=["flat-atoms", "infinite-atom", "no-atoms", "probs-shape"])
    def test_rejects_malformed_atoms_and_probs(self, atoms, probs, message):
        with pytest.raises(ValidationError, match=message):
            FiniteSupportSummands(atoms, probs)

    def test_accepts_many_atoms(self):
        m = FiniteSupportSummands([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
        assert m.atom_count == 3 and m.dim == 1


class TestFiniteSupportCumulants:
    def test_cgf_value(self, two_atom_plane):
        theta = [0.3, -0.2]
        expected = math.log(
            0.4 * math.exp(0.3) + 0.6 * math.exp(-0.4)
        )
        assert_allclose(two_atom_plane.cgf(theta), expected, rtol=1e-14)

    def test_grad_matches_fd(self, two_atom_plane):
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = rng.normal(size=2)
            assert_allclose(
                two_atom_plane.cgf_grad(theta),
                fd_grad(two_atom_plane.cgf, theta),
                atol=1e-6,
            )

    def test_hess_matches_fd(self, two_atom_plane):
        rng = np.random.default_rng(12)
        for _ in range(5):
            theta = rng.normal(size=2)
            assert_allclose(
                two_atom_plane.cgf_hess(theta),
                fd_hess(two_atom_plane.cgf, theta),
                atol=1e-5,
            )

    def test_mean_cov(self, two_atom_plane):
        assert_allclose(two_atom_plane.mean(), [0.4, 1.2])
        # Bernoulli-style two-point law: var along atom difference.
        cov = two_atom_plane.cov().matrix
        diff = np.array([1.0, -2.0])
        assert_allclose(cov, 0.4 * 0.6 * np.outer(diff, diff), atol=1e-14)

    def test_cov_is_built_once(self, two_atom_plane):
        assert two_atom_plane.cov() is two_atom_plane.cov()

    @pytest.mark.parametrize("second", [
        lambda m: m.cov().matrix,
        lambda m: m.cgf_hess([0.0, 0.0]),
        lambda m: m.cgf_hess([0.7, -1.2]),
    ], ids=["cov", "hess-at-0", "hess-tilted"])
    @pytest.mark.parametrize("shift", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_cov_is_shift_invariant(self, shift, second):
        # Centred products: E[XX^T] - mu mu^T would cancel far from 0. A
        # shift leaves the tilted weights, so the Hessian, unchanged too.
        atoms = np.array([[0.0, 0.0], [1.0, 0.3], [0.1, 1.0]])
        probs = [0.2, 0.3, 0.5]
        base = second(FiniteSupportSummands(atoms, probs))
        moved = second(FiniteSupportSummands(atoms + shift, probs))
        assert_allclose(moved, base, rtol=1e-9)

    def test_cov_far_from_origin_is_symmetric(self):
        m = FiniteSupportSummands(
            [[1e5, 1e5], [1e5 + 1, 1e5 + 1], [1e5, 1e5 + 1]], [0.3, 0.3, 0.4]
        )
        assert_allclose(m.cov().matrix, [[0.21, 0.09], [0.09, 0.21]], rtol=1e-9)

    def test_grad_at_zero_is_mean(self, two_atom_plane):
        assert_allclose(
            two_atom_plane.cgf_grad([0.0, 0.0]), two_atom_plane.mean(),
            rtol=1e-14,
        )


class TestCramerRate:
    def test_vertex_value(self):
        # Rate at an atom is -log of its probability.
        m = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert_allclose(m.conjugate_closed_form([1.0, 0.0]), math.log(2.0),
                        rtol=1e-12)

    def test_interior_relative_entropy(self):
        m = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75])
        x = [0.5, 0.5]
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert_allclose(m.conjugate_closed_form(x), expected, rtol=1e-12)

    def test_zero_at_mean(self):
        m = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7])
        assert_allclose(m.conjugate_closed_form(m.mean()), 0.0, atol=1e-12)

    @pytest.mark.parametrize("atoms, x, finite", [
        ([[1.0, 0.0], [0.0, 1.0]], [2.0, -1.0], False),
        ([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.3], False),  # in span, off simplex
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.5, 0.5, 0.0], True),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 1.0], False),  # off span
    ])
    def test_off_hull_posinf(self, atoms, x, finite):
        # The rate is finite exactly on the convex hull of the atoms; two
        # atoms in R^3 span only the segment between them.
        m = FiniteSupportSummands(atoms, [0.5, 0.5])
        expected = 0.0 if finite else math.inf  # the midpoint has c = p
        assert m.conjugate_closed_form(x) == pytest.approx(expected, abs=1e-12)

    def test_conjugate_duality_against_optimizer(self):
        # The closed form must agree with the defining supremum, here
        # approximated by a dense grid over theta.
        m = FiniteSupportSummands([[1.0, 0.0], [0.0, 1.0]], [0.4, 0.6])
        x = np.array([0.7, 0.3])
        grid = np.linspace(-30.0, 30.0, 1201)
        best = max(
            t1 * x[0] + t2 * x[1] - m.cgf([t1, t2])
            for t1 in grid[::20]
            for t2 in grid[::20]
        )
        assert m.conjugate_closed_form(x) >= best - 1e-9
        assert m.conjugate_closed_form(x) <= best + 1e-2  # grid resolution

    def test_many_atoms_rejected(self):
        m = FiniteSupportSummands([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
        assert m.conjugate_closed_form([0.5]) is None

    def test_module_helper_on_grid_paths(self):
        grid_model = grid_finite_support(
            [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]
        )
        assert_allclose(
            grid_model.conjugate_closed_form([1.0, 0.0]), math.log(2.0),
            rtol=1e-12,
        )


class TestGaussian:
    def test_rejects_mean_and_cov_of_different_sizes(self):
        with pytest.raises(ValidationError,
                           match="mean has length 2 but covariance is 1 x 1"):
            GaussianSummands([0.0, 0.0], [[1.0]])

    def test_cgf_quadratic(self, gaussian_2d):
        theta = [0.7, -0.3]
        mu = np.array([0.5, -1.0])
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        t = np.array(theta)
        expected = float(t @ mu + 0.5 * t @ sigma @ t)
        assert_allclose(gaussian_2d.cgf(theta), expected, rtol=1e-14)

    def test_grad_matches_fd(self, gaussian_2d):
        rng = np.random.default_rng(21)
        for _ in range(10):
            theta = rng.normal(size=2)
            assert_allclose(
                gaussian_2d.cgf_grad(theta), fd_grad(gaussian_2d.cgf, theta),
                atol=1e-6,
            )

    def test_conjugate_exact(self, gaussian_2d):
        # (1/2) <Sigma^{-1}(x - mu), x - mu> via a dense solve.
        x = np.array([1.3, 0.4])
        mu = np.array([0.5, -1.0])
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        expected = 0.5 * float((x - mu) @ np.linalg.solve(sigma, x - mu))
        assert_allclose(
            float(gaussian_2d.conjugate_closed_form(x)), expected, rtol=1e-10
        )

    def test_singular_conjugate_off_image(self):
        m = GaussianSummands([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        assert m.conjugate_closed_form([1.0, -1.0]) == math.inf
        # On the image: supremum attained at theta = (1/2, 1/2), value 1/2.
        assert_allclose(float(m.conjugate_closed_form([1.0, 1.0])), 0.5,
                        rtol=1e-10)

    def test_tilted_shifts_mean(self, gaussian_2d):
        t = np.array([0.2, 0.1])
        tilted = gaussian_2d.tilted(t)
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert_allclose(tilted.mean(), gaussian_2d.mean() + sigma @ t,
                        rtol=1e-12)

    def test_sample_sum_batch_moments(self, gaussian_2d):
        rng = np.random.default_rng(31)
        counts = np.full(20000, 7)
        sums = gaussian_2d.sample_sum_batch(rng, counts)
        assert sums.shape == (20000, 2)
        se = np.sqrt(7.0 * np.diag([[2.0, 0.5], [0.5, 1.0]]) / 20000)
        assert np.all(np.abs(sums.mean(axis=0) - 7.0 * gaussian_2d.mean())
                      <= 4.0 * se)

    @pytest.mark.parametrize("mean, cov", [
        ([0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]]),
        ([0.5, 0.0, -1.0], [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 0.7]]),
    ], ids=["2-d", "3-d"])
    def test_rows_do_not_depend_on_the_batch_size(self, mean, cov):
        # Batches of 1, 2 and 3 sums at one seed are the first rows of a
        # batch of 17, bit for bit: a one-row batch takes the matrix product
        # too, not numpy's vector-matrix routine, which rounds otherwise.
        m = GaussianSummands(mean, cov)
        counts = np.arange(30, 47)
        for seed in range(40):
            full = m.sample_sum_batch(np.random.default_rng(seed), counts)
            for size in (1, 2, 3):
                batch = m.sample_sum_batch(np.random.default_rng(seed), counts[:size])
                assert np.array_equal(batch, full[:size])


def stage_table(q, max_count=400):
    return _GuideTable(q, *_binomial_windows(q, max_count))


def table_row(table, k):
    """Row k of a stage table: its first state and its cdf values, from
    its first cell (the draw at u = 0) to its sentinel (its last state)."""
    first_cell = table.cells[k]
    start = table.lo[first_cell]
    end = table.lo[first_cell + int(table.scale[k])] + 1
    return start - table.shift[k], table.cdf[start:end]


STAGE_PROBS = [0.02, 0.3, 3.0 / 7.0, 0.5, 0.97]
# The rows' largest distance from the exact cdf, relative to its nearer
# tail, past the 2^-53 grid, up to the largest table that TABLE_STAGE_STATES
# admits (measured: at most 2.8e-14). scipy's bdtr was 8.7e-13 to 2.8e-12
# off by the same measure, and 3.6e-13 to 1.2e-12 in absolute terms.
ROW_ERROR = 5e-14


def exact_cdf_rows(q, top):
    """(k, cdf, survival) of Binomial(k, q) over the states 0..k, for
    k = 0..top, at the float q's exact binary value: Pascal's rule in
    integers scaled by 2^256, within k 2^-256 of exact, rounded once to
    floats."""
    num, den = q.as_integer_ratio()
    shift, one = den.bit_length() - 1, 1 << 256
    row = np.array([one], dtype=object)
    for k in range(top + 1):
        if k:
            padded = np.concatenate([[0], row, [one]])
            row = (num * padded[:-1] + (den - num) * padded[1:]) >> shift
        yield k, row.astype(float) / one, (one - row).astype(float) / one


def largest_admitted(q):
    """The largest max_count whose one-stage table holds at most
    TABLE_STAGE_STATES window states (every row holds at least one)."""
    lows, highs = _binomial_windows(q, TABLE_STAGE_STATES)
    return int(np.searchsorted(np.cumsum(highs - lows + 1), TABLE_STAGE_STATES,
                               side="right")) - 1


def cdf_rows(rng):
    """cdf rows of every shape a table row takes, each nondecreasing and
    ending at 1: one state; zeros before the first state of positive cdf;
    a long flat tail of 1s; plateaus inside; values on cell edges; a left
    tail far below 2^-53; and random rows of all three."""
    rows = [
        np.array([1.0]),
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([0.25, 0.5, 0.5, 0.5, 0.75, 1.0, 1.0]),
        np.array([1e-300, UNIFORM_STEP / 2, UNIFORM_STEP, 2 * UNIFORM_STEP,
                  0.5 - UNIFORM_STEP, 0.5, TOP_UNIFORM, 1.0]),
        np.concatenate([np.zeros(30), [0.1, 0.9], np.ones(200)]),
    ]
    for size in (2, 3, 7, 64, 65, 300, 1000):
        pmf = rng.exponential(size=size) ** 4 * (rng.random(size) < 0.7)
        pmf[rng.integers(size)] += 1e-3
        pmf[:rng.integers(size // 2 + 1)] = 0.0
        cdf = np.minimum(np.cumsum(pmf / pmf.sum()), 1.0)
        cdf[rng.integers(size // 2, size):] = 1.0
        rows.append(cdf)
    # Poisson(200) over 0..399: 150 states of cdf below 1 / 1024 on the left.
    k = np.arange(400.0)
    cdf = np.cumsum(np.exp(k * math.log(200.0) - 200.0 - gammaln(k + 1.0)))
    rows.append(np.append(cdf[cdf < 1.0], 1.0))
    return rows


class TestCdfGuide:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_are_searchsorted_on_every_row(self, seed):
        # Rows built in one set, each with its own first state: every draw
        # equals searchsorted(row, u, side="right") past that state, at
        # random u, 0, 2^-53, the top uniform, each row value and each cell
        # edge c / M, all with their float neighbours.
        rng = np.random.default_rng(seed)
        rows = cdf_rows(rng)
        rng.shuffle(rows)
        lows = rng.integers(0, 1000, len(rows))
        guide = _CdfGuide(np.concatenate(rows), np.array([r.size for r in rows]), lows)
        for k, row in enumerate(rows):
            cells = np.arange(guide.scale[k] + 1) / guide.scale[k]
            u = np.concatenate([rng.random(100), [0.0, UNIFORM_STEP, TOP_UNIFORM],
                                row, cells])
            u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            expected = lows[k] + np.searchsorted(row, u, side="right")
            assert np.array_equal(guide.draw(np.full(u.size, k), u), expected)
            assert np.array_equal(guide.draw(k, u), expected)

    def test_cells_are_a_power_of_two_at_least_twice_the_reachable_states(self):
        # A row keeps its w states from the first of positive cdf to the
        # first of cdf 1, gets M = 2^ceil(log2(2 w)) int32 cells and one
        # sentinel, and holds the draw at u = c / M in cell c.
        rows = cdf_rows(np.random.default_rng(3))
        guide = _CdfGuide(np.concatenate(rows), np.array([r.size for r in rows]),
                          np.zeros(len(rows), dtype=np.int64))
        assert guide.lo.dtype == np.int32
        assert guide.lo.size == sum(int(m) + 1 for m in guide.scale)
        for k, row in enumerate(rows):
            w = int(np.argmax(row >= 1.0)) + 1 - int(np.argmax(row > 0.0))
            m = int(guide.scale[k])
            assert m == 1 << (2 * w - 1).bit_length() and 2 * w <= m < 4 * w
            cells = guide.lo[guide.cells[k]:guide.cells[k] + m + 1] - guide.shift[k]
            assert np.array_equal(
                cells[:-1], np.searchsorted(row, np.arange(m) / m, side="right"))
            assert cells[-1] == np.argmax(row >= 1.0)


class TestGuideTables:
    @pytest.mark.parametrize("q", STAGE_PROBS)
    def test_rows_match_the_exact_cdf(self, q):
        # Every row, up to the largest table that TABLE_STAGE_STATES admits,
        # is the exact binomial cdf over the states a uniform on the 2^-53
        # grid selects: the states left of it have exact cdf at most 2^-53,
        # those right of its last state exact mass at most 2^-53, and in
        # between it is within ROW_ERROR of the exact cdf relative to the
        # nearer tail, past the grid step. Row k is the same whatever the
        # table's max_count.
        top = largest_admitted(q)
        table, small = stage_table(q, top), stage_table(q)
        assert 400 < top < TABLE_STAGE_STATES
        for k, cdf, survival in exact_cdf_rows(q, top):
            low, row = table_row(table, k)
            assert np.all(np.diff(row) >= 0.0) and row[-1] == 1.0
            assert np.all(cdf[:low] <= UNIFORM_STEP)
            assert survival[low + row.size - 1] <= UNIFORM_STEP
            window = slice(low, low + row.size)
            assert np.all(np.abs(row - cdf[window]) <= ROW_ERROR * np.minimum(
                cdf[window], survival[window]) + UNIFORM_STEP)
            if k <= 400:
                small_low, small_row = table_row(small, k)
                assert low == small_low and np.array_equal(row, small_row)

    @pytest.mark.parametrize("q", STAGE_PROBS)
    def test_draws_invert_their_own_row(self, q):
        # Random u, and every edge: 0, 2^-53, each row value, both sides of
        # each edge c / w and of each guide-cell edge c / M, and the top
        # uniform.
        table = stage_table(q)
        rng = np.random.default_rng(int(q * 1000))
        for k in range(401):
            low, row = table_row(table, k)
            edges = np.concatenate([np.arange(row.size) / row.size,
                                    np.arange(table.scale[k]) / table.scale[k]])
            u = np.concatenate([
                rng.random(50), [0.0, UNIFORM_STEP, TOP_UNIFORM], row,
                np.nextafter(row, 0.0), edges, np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            draws = table.draw(np.full(u.size, k), u)
            assert np.array_equal(draws, low + np.searchsorted(row, u, side="right"))

    @pytest.mark.parametrize("q", STAGE_PROBS)
    def test_draws_match_bdtr_inversion(self, q):
        from scipy.special import bdtr

        table = stage_table(q)
        rng = np.random.default_rng(7)
        k, u = rng.integers(0, 401, 20_000), rng.random(20_000)
        expected = np.empty_like(k)
        for row in range(401):
            at = k == row
            expected[at] = invert_cdf(bdtr(np.arange(row + 1), row, q), u[at])
        assert np.array_equal(table.draw(k, u), expected)

    def test_sure_stages_and_the_empty_row(self):
        # q = 0 keeps every step for later atoms, q = 1 takes all of them,
        # and no stage takes a step from a row of no steps.
        k = np.arange(50).repeat(3)
        u = np.tile([0.0, 0.5, TOP_UNIFORM], 50)
        assert np.array_equal(stage_table(0.0, 49).draw(k, u), np.zeros_like(k))
        assert np.array_equal(stage_table(1.0, 49).draw(k, u), k)
        empty = np.zeros(3, dtype=np.int64)
        for q in STAGE_PROBS:
            assert stage_table(q, 0).draw(empty, u[:3]).tolist() == [0] * 3

    def test_plain_sampler_route(self):
        # Tables up to TABLE_STAGE_STATES states a stage; binomials past it,
        # and for every law without stages.
        m = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        assert m.plain_sampler(100) != m.sample_sum_batch
        assert m.plain_sampler(600) == m.sample_sum_batch
        g = GaussianSummands([0.0], [[1.0]])
        assert g.plain_sampler(100) == g.sample_sum_batch

    @pytest.mark.parametrize("n, states, tables", [
        (200, [40_184, 14_287], True),
        (300, [65_565, 22_522], False),
        (400, [93_014, 31_595], False),
    ])
    def test_route_is_judged_stage_by_stage(self, n, states, tables):
        # Atoms 1, 0, -1 at 0.49, 0.02, 0.49 under Poisson(1) counts: the
        # stages' mean stays within TABLE_STAGE_STATES at each n, but from
        # n = 300 the first stage alone passes it, so plain draws take
        # numpy's binomials there.
        m = FiniteSupportSummands([[1.0], [0.0], [-1.0]], [0.49, 0.02, 0.49])
        max_count = PoissonCounting(1.0).count_law(n).max_count
        windows = [_binomial_windows(q, max_count) for q in m._stages]
        assert [int((b - a + 1).sum()) for a, b in windows] == states
        assert sum(states) <= TABLE_STAGE_STATES * len(states)
        assert (m.plain_sampler(max_count) != m.sample_sum_batch) == tables

    def test_no_admitted_stage_table_passes_the_stage_bound(self, monkeypatch):
        # Over laws of one and two stages and counts up to 800, a stage
        # table is built exactly where every stage's windows hold at most
        # TABLE_STAGE_STATES states and all at most MASS_TABLE_CAP, each with
        # its own stage's states.
        built = []

        class RecordedTable(_GuideTable):
            def __init__(self, q, lows, highs):
                built.append(int((highs - lows + 1).sum()))
                super().__init__(q, lows, highs)

        monkeypatch.setattr(summands, "_GuideTable", RecordedTable)
        laws = [([[1.0], [-1.0]], [0.5, 0.5]),
                ([[0.0], [1.0]], [0.97, 0.03]),
                ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.3, 0.3, 0.4]),
                ([[1.0], [0.0], [-1.0]], [0.49, 0.02, 0.49])]
        for atoms, probs in laws:
            m = FiniteSupportSummands(atoms, probs)
            for max_count in range(0, 801, 40):
                states = [int((b - a + 1).sum()) for a, b in (
                    _binomial_windows(q, max_count) for q in m._stages)]
                start = len(built)
                sampler = m.plain_sampler(max_count)
                if max(states) <= TABLE_STAGE_STATES and sum(states) <= MASS_TABLE_CAP:
                    assert sampler != m.sample_sum_batch and built[start:] == states
                else:
                    assert sampler == m.sample_sum_batch and built[start:] == []
        assert 60_000 < max(built) <= TABLE_STAGE_STATES

    def test_rounded_stages_of_exactly_zero_and_one(self):
        # The second stage's conditional probability rounds past 1 and the
        # third's below 0, so both are clipped: the last two atoms are
        # never drawn, on either route.
        m = FiniteSupportSummands([[1.0], [10.0], [100.0], [1000.0]],
                                  [0.5, 0.5 + 5e-13, 1e-13, 1e-13])
        assert m._stages == [0.5, 1.0, 0.0]
        counts = np.arange(200) % 20
        for draw in (m.sample_sum_batch, m.plain_sampler(19)):
            sums = draw(np.random.default_rng(3), counts)[:, 0]
            assert np.all(sums <= 10 * counts)
            assert np.all((10 * counts - sums) % 9 == 0)


class TestFiniteSupportSampling:
    @pytest.mark.parametrize("route", ["binomial", "table"])
    def test_sample_sum_batch_matches_brute_force_law(self, route):
        m = FiniteSupportSummands([[1.0], [-1.0]], [0.75, 0.25])
        rng = np.random.default_rng(41)
        counts = np.full(50000, 4)
        draw = m.sample_sum_batch if route == "binomial" else m.plain_sampler(4)
        assert (draw == m.sample_sum_batch) == (route == "binomial")
        sums = draw(rng, counts)[:, 0]
        # Sum of 4 steps is 2 B - 4 with B ~ Binomial(4, 3/4).
        expected_mean = 2 * 4 * 0.75 - 4
        expected_var = 4 * 4 * 0.75 * 0.25
        assert abs(sums.mean() - expected_mean) <= 4 * math.sqrt(
            expected_var / 50000
        )
        assert abs(sums.var() - expected_var) <= 0.05

    def test_zero_count_gives_zero_sum(self):
        m = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        rng = np.random.default_rng(42)
        sums = m.sample_sum_batch(rng, np.array([0, 0, 3]))
        assert sums[0, 0] == 0.0 and sums[1, 0] == 0.0

    def test_tilted_reweights(self):
        m = FiniteSupportSummands([[1.0], [-1.0]], [0.5, 0.5])
        tilted = m.tilted([math.log(3.0) / 2.0])
        # exp(theta * x) weights: sqrt(3) vs 1/sqrt(3), ratio 3.
        assert_allclose(tilted.probs[0] / tilted.probs[1], 3.0, rtol=1e-12)

    def test_tilt_drops_atoms_whose_weight_underflows(self):
        # exp(-800 theta) underflows at theta = 1.5: that atom carries no
        # tilted mass, so the tilted law lives on the other two.
        m = FiniteSupportSummands([[1.0], [0.0], [-800.0]], [0.45, 0.45, 0.1])
        tilted = m.tilted([1.5])
        assert tilted.atoms.tolist() == [[1.0], [0.0]]
        assert_allclose(tilted.probs, np.array([1.0, math.exp(-1.5)])
                        / (1.0 + math.exp(-1.5)), rtol=1e-15)


class TestGridFunction:
    def test_gaussian_field_from_kernel_callable(self):
        grid = [0.0, 0.5, 1.0]
        model = grid_gaussian(
            grid, lambda s: s, lambda s, t: math.exp(-abs(s - t))
        )
        assert isinstance(model, GaussianSummands)
        assert model.dim == 3
        assert_allclose(model.mean(), [0.0, 0.5, 1.0])
        assert_allclose(model.cov().matrix[0, 2], math.exp(-1.0), rtol=1e-12)

    def test_finite_support_paths_from_callables(self):
        grid = [0.0, 1.0, 2.0]
        model = grid_finite_support(
            grid, [lambda s: s, lambda s: s * s], [0.5, 0.5]
        )
        assert isinstance(model, FiniteSupportSummands)
        assert_allclose(model.atoms, [[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]])
        assert_allclose(model.mean(), [0.0, 1.0, 3.0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            grid_gaussian([0.0, 1.0], [0.0], [[1.0]])
        with pytest.raises(DimensionMismatchError):
            grid_finite_support([0.0, 1.0], [[0.0], [1.0]], [0.5, 0.5])

    def test_tilt_of_a_grid_field_is_gaussian(self):
        model = grid_gaussian([0.0, 1.0], [0.0, 0.0], [[1.0, 0.2], [0.2, 1.0]])
        tilted = model.tilted([1.0, 0.0])
        assert isinstance(tilted, GaussianSummands)
        assert_allclose(tilted.mean(), [1.0, 0.2], rtol=1e-12)

    def test_pairing_is_plain_weighted_sum(self):
        # Dual vectors act as signed point masses: no grid-spacing factor,
        # so the cgf of the projected scalar is that of the site values.
        grid = [0.0, 0.25, 1.0]
        kernel = np.eye(3)
        model = grid_gaussian(grid, [1.0, 1.0, 1.0], kernel)
        theta = [1.0, -1.0, 2.0]
        assert_allclose(model.cgf(theta), 2.0 + 0.5 * 6.0, rtol=1e-12)
