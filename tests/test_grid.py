import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky_banded

from qvar.errors import GridMismatchError, MeshError
from qvar.grid import (
    GridFunction,
    _cholesky_solve,
    _cholesky_tridiag,
    _h1_gram_cholesky,
    dual_norm,
    duality_pairing,
    from_csv,
    lattice_max,
    lattice_min,
    leq,
    make_mesh,
    norm,
    pos_part,
    to_csv,
    trapezoid_integral,
)

def gf(mesh, values):
    return GridFunction(mesh, np.asarray(values, dtype=float))


def lattice_pairs():
    """50 seeded pairs of 5-vectors drawn from [-100, 100], then edge pairs:
    equal vectors, zeros, +-100 and mixed signs."""
    pairs = list(np.random.default_rng(20).uniform(-100.0, 100.0, size=(50, 2, 5)))
    mixed = np.array([100.0, -100.0, 0.0, -2.5, 1e-300])
    ones = np.ones(5)
    return pairs + [
        (mixed, mixed),
        (0.0 * ones, 0.0 * ones),
        (100.0 * ones, -100.0 * ones),
        (-100.0 * ones, 100.0 * ones),
        (mixed, -mixed),
    ]


class TestMesh:
    def test_dirichlet_dofs(self):
        mesh = make_mesh(4, "dirichlet")
        assert mesh.dof_count == 3
        assert mesh.h == 0.25

    def test_neumann_dofs(self):
        mesh = make_mesh(4, "neumann")
        assert mesh.dof_count == 5
        assert mesh.h == 0.25

    def test_too_small(self):
        with pytest.raises(MeshError):
            make_mesh(1, "dirichlet")

    def test_bad_bc(self):
        with pytest.raises(MeshError):
            make_mesh(4, "periodic")

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_pairing_weights(self, bc):
        mesh = make_mesh(8, bc)
        assert np.array_equal(mesh.hw, mesh.h * mesh.weights())
        assert mesh.hw is mesh.hw
        with pytest.raises(ValueError):
            mesh.hw[0] = 1.0
        # the trapezoid weights are cached the same way
        assert mesh.weights() is mesh.weights()
        with pytest.raises(ValueError):
            mesh.weights()[0] = 2.0

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 256, 1000])
    def test_spacing_consistency(self, n):
        mesh = make_mesh(n, "dirichlet")
        assert abs(n * mesh.h - 1.0) <= 1e-14


class TestIntegral:
    def test_constant_neumann(self):
        for n in (2, 5, 64):
            mesh = make_mesh(n, "neumann")
            assert trapezoid_integral(GridFunction.constant(mesh, 1.0)) == pytest.approx(1.0)

    def test_linear_neumann(self):
        mesh = make_mesh(4, "neumann")
        u = gf(mesh, mesh.dof_nodes())
        assert trapezoid_integral(u) == pytest.approx(0.5)

    def test_constant_dirichlet_boundary_zeros(self):
        mesh = make_mesh(4, "dirichlet")
        assert trapezoid_integral(GridFunction.constant(mesh, 1.0)) == pytest.approx(0.75)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        mesh = make_mesh(17, "neumann")
        for _ in range(20):
            u = gf(mesh, rng.standard_normal(mesh.dof_count))
            v = gf(mesh, rng.standard_normal(mesh.dof_count))
            a, b = rng.standard_normal(2)
            lhs = trapezoid_integral(a * u + b * v)
            rhs = a * trapezoid_integral(u) + b * trapezoid_integral(v)
            assert abs(lhs - rhs) <= 1e-12


class TestNorms:
    def test_constant_neumann(self):
        mesh = make_mesh(8, "neumann")
        u = GridFunction.constant(mesh, -3.0)
        assert norm(u, "l2") == pytest.approx(3.0)
        assert norm(u, "h1") == pytest.approx(3.0)
        assert norm(u, "sup") == pytest.approx(3.0)

    def test_zero(self):
        mesh = make_mesh(8, "dirichlet")
        z = GridFunction.zeros(mesh)
        for kind in ("l2", "h1", "sup"):
            assert norm(z, kind) == 0.0

    def test_hat_function_frozen_values(self):
        # hand evaluation on n=4: l2^2 = h*1 = 1/4; edge differences
        # (0,1,-1,0) give a gradient term (1+1)/h = 8
        mesh = make_mesh(4, "dirichlet")
        hat = gf(mesh, [0.0, 1.0, 0.0])
        assert norm(hat, "sup") == 1.0
        assert norm(hat, "l2") == pytest.approx(0.5)
        assert norm(hat, "h1") == pytest.approx(np.sqrt(0.25 + 8.0))

    def test_l2_below_h1(self):
        rng = np.random.default_rng(11)
        for bc in ("dirichlet", "neumann"):
            mesh = make_mesh(19, bc)
            for _ in range(25):
                u = gf(mesh, rng.standard_normal(mesh.dof_count))
                assert norm(u, "l2") <= norm(u, "h1") + 1e-14

    def test_unknown_kind(self):
        mesh = make_mesh(4, "neumann")
        with pytest.raises(ValueError):
            norm(GridFunction.zeros(mesh), "linf")


class TestLattice:
    def test_pos_part_negative_constant(self):
        mesh = make_mesh(6, "neumann")
        assert np.all(pos_part(GridFunction.constant(mesh, -1.0)).values == 0.0)

    def test_idempotence(self):
        mesh = make_mesh(6, "dirichlet")
        u = gf(mesh, [1.0, -2.0, 0.5, 0.0, -0.1])
        assert np.array_equal(lattice_min(u, u).values, u.values)
        assert np.array_equal(lattice_max(u, u).values, u.values)
        pp = pos_part(u)
        assert np.array_equal(pos_part(pp).values, pp.values)

    def test_min_plus_max_identity(self):
        mesh = make_mesh(6, "dirichlet")
        for a, b in lattice_pairs():
            u, v = gf(mesh, a), gf(mesh, b)
            lhs = lattice_min(u, v).values + lattice_max(u, v).values
            assert np.all(np.abs(lhs - (u.values + v.values)) <= 1e-14)

    def test_min_pos_part_decomposition(self):
        mesh = make_mesh(6, "dirichlet")
        for a, b in lattice_pairs():
            u, v = gf(mesh, a), gf(mesh, b)
            rebuilt = lattice_min(u, v).values + pos_part(u - v).values
            assert np.all(np.abs(rebuilt - u.values) <= 1e-12)

    def test_pos_part_dominates(self):
        rng = np.random.default_rng(5)
        mesh = make_mesh(9, "neumann")
        u = gf(mesh, rng.standard_normal(mesh.dof_count))
        p = pos_part(u)
        assert np.all(p.values >= 0.0)
        assert np.all(p.values >= u.values)

    def test_leq(self):
        mesh = make_mesh(4, "neumann")
        u = GridFunction.constant(mesh, 1.0)
        v = GridFunction.constant(mesh, 1.0 + 1e-10)
        assert leq(u, v, 0.0)
        assert not leq(v, u, 0.0)
        assert leq(v, u, 1e-9)

    def test_mesh_mismatch(self):
        u = GridFunction.zeros(make_mesh(4, "neumann"))
        v = GridFunction.zeros(make_mesh(8, "neumann"))
        with pytest.raises(GridMismatchError):
            lattice_min(u, v)


class TestGridFunction:
    def test_length_check(self):
        mesh = make_mesh(4, "dirichlet")
        with pytest.raises(GridMismatchError):
            GridFunction(mesh, np.zeros(5))

    def test_finite_check(self):
        mesh = make_mesh(4, "dirichlet")
        with pytest.raises(ValueError):
            GridFunction(mesh, np.array([0.0, np.nan, 0.0]))

    def test_values_copied(self):
        mesh = make_mesh(4, "dirichlet")
        raw = np.zeros(3)
        u = GridFunction(mesh, raw)
        raw[0] = 99.0
        assert u.values[0] == 0.0

    def test_copy_is_independent(self):
        mesh = make_mesh(4, "dirichlet")
        u = GridFunction(mesh, np.arange(3.0))
        v = u.copy()
        assert v.mesh is u.mesh
        np.testing.assert_array_equal(v.values, u.values)
        assert not np.shares_memory(v.values, u.values)


class TestDualNorm:
    def test_constant_on_neumann(self):
        # sup <c, v>/||v||_h1 is attained at constant v
        mesh = make_mesh(64, "neumann")
        g = GridFunction.constant(mesh, 0.1)
        assert dual_norm(g) == pytest.approx(0.1, abs=1e-10)

    def test_pairing_bounded_by_dual(self):
        rng = np.random.default_rng(2)
        mesh = make_mesh(21, "dirichlet")
        for _ in range(30):
            g = gf(mesh, rng.standard_normal(mesh.dof_count))
            v = gf(mesh, rng.standard_normal(mesh.dof_count))
            assert duality_pairing(g, v) <= dual_norm(g) * norm(v, "h1") + 1e-10


class TestTridiagCholesky:
    """The dpttrf factor against scipy's banded Cholesky, which serves here
    only as the reference for the definiteness decision."""

    @pytest.mark.parametrize("value, definite", [(2.0, True), (0.0, False), (-1.0, False)])
    def test_one_by_one(self, value, definite):
        fac = _cholesky_tridiag(np.zeros(0), np.array([value]))
        if not definite:
            assert fac is None
            return
        d, e = fac
        assert d.tolist() == [value] and e.size == 0
        assert _cholesky_solve(fac, np.array([3.0])).tolist() == [1.5]

    @pytest.mark.parametrize("m", [2, 3, 64, 2047])
    def test_definiteness_and_solve(self, m):
        rng = np.random.default_rng(m)
        for shift in np.linspace(-1.0, 3.0, 9):
            off = rng.standard_normal(m - 1)
            # scipy's upper banded form pads the superdiagonal with a leading zero
            padded = np.insert(off, 0, 0.0)
            diag = 2.0 * np.abs(padded) + shift
            fac = _cholesky_tridiag(off, diag)
            try:
                cholesky_banded(np.vstack([padded, diag]), lower=False)
            except LinAlgError:
                assert fac is None
                continue
            assert fac is not None
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            b = rng.standard_normal(m)
            x = _cholesky_solve(fac, b)
            # componentwise backward error
            berr = np.abs(dense @ x - b) / (np.abs(dense) @ np.abs(x) + np.abs(b))
            assert np.max(berr) <= 64 * np.finfo(float).eps

    @pytest.mark.parametrize("m", [1, 4])
    def test_nan_band_is_not_definite(self, m):
        diag = np.full(m, 4.0)
        diag[0] = np.nan
        assert _cholesky_tridiag(np.full(m - 1, -1.0), diag) is None

    def test_nan_right_hand_side_is_value_error(self):
        fac = _cholesky_tridiag(np.full(3, -1.0), np.full(4, 4.0))
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            _cholesky_solve(fac, np.array([1.0, np.nan, 1.0, 1.0]))

    def test_cached_h1_factor_is_read_only(self):
        d, e = _h1_gram_cholesky(make_mesh(64, "dirichlet"))
        with pytest.raises(ValueError):
            d[0] = 1.0
        with pytest.raises(ValueError):
            e[0] = 1.0


class TestCsv:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_round_trip(self, bc):
        rng = np.random.default_rng(9)
        mesh = make_mesh(16, bc)
        u = gf(mesh, rng.standard_normal(mesh.dof_count))
        back = from_csv(to_csv(u), bc)
        assert back.mesh == mesh
        assert np.max(np.abs(back.values - u.values)) <= 1e-15

    def test_dirichlet_boundary_zeros_emitted(self):
        mesh = make_mesh(4, "dirichlet")
        text = to_csv(GridFunction.constant(mesh, 2.0))
        rows = text.strip().splitlines()
        assert rows[0] == "x,value"
        assert rows[1].startswith("0,") and rows[1].endswith(",0")
        assert rows[-1].split(",")[1] == "0"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # x = 0, 5, -3, 1 used to load as an n=3 mesh
            (
                ["0,1", "5,2", "-3,1", "1,0"],
                "line 3: x = 5, but node 1 of a uniform 4-node mesh sits at x = 0.333333",
            ),
            (
                ["0,0", "0.5,1", "0.25,2", "0.75,2", "1,0"],
                "line 3: x = 0.5, but node 1 of a uniform 5-node mesh sits at x = 0.25",
            ),
            (["0,0", "0.5,1,2", "1,0"], "line 3: expected two numbers x,value, got '0.5,1,2'"),
            (["0,0", "0.5", "1,0"], "line 3: expected two numbers x,value, got '0.5'"),
            (["0,0", "0.5,one", "1,0"], "line 3: expected two numbers x,value, got '0.5,one'"),
        ],
        ids=["shifted", "shuffled", "three_fields", "one_field", "not_a_number"],
    )
    def test_malformed_rows_name_their_line(self, rows, message):
        text = "x,value\n" + "\n".join(rows) + "\n"
        with pytest.raises(ValueError) as exc:
            from_csv(text, "neumann")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "shift, ok", [(0.9e-3, True), (-0.9e-3, True), (1.1e-3, False), (-1.1e-3, False)]
    )
    def test_node_tolerance_is_a_thousandth_of_h(self, shift, ok):
        n = 16
        mesh = make_mesh(n, "dirichlet")
        lines = to_csv(GridFunction.constant(mesh, 0.5)).splitlines()
        x, v = lines[5].split(",")
        lines[5] = f"{float(x) + shift / n!r},{v}"
        text = "\n".join(lines) + "\n"
        if ok:
            assert np.array_equal(from_csv(text, "dirichlet").values, np.full(n - 1, 0.5))
        else:
            with pytest.raises(ValueError, match="^line 6: x = "):
                from_csv(text, "dirichlet")


def _to_csv_per_row(u):
    """to_csv as it was before all rows went through one `%`: the reference."""
    xs = u.mesh.nodes()
    vals = u.with_boundary()
    lines = ["x,value"]
    lines += [f"{x:.17g},{v:.17g}" for x, v in zip(xs.tolist(), vals.tolist())]
    return "\n".join(lines) + "\n"


_EDGE_VALUES = (-0.0, 5e-324, 1e300, -1e300)


class TestCsvMatchesPerRowReference:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [2, 3, 64, 1024])
    def test_same_string(self, n, bc):
        mesh = make_mesh(n, bc)
        rng = np.random.default_rng(n)
        # seeded values over the whole exponent range, the edge values first
        values = rng.standard_normal(mesh.dof_count) * 10.0 ** rng.uniform(-300, 300, mesh.dof_count)
        k = min(len(_EDGE_VALUES), mesh.dof_count)
        values[:k] = _EDGE_VALUES[:k]
        cases = [gf(mesh, values)] + [GridFunction.constant(mesh, c) for c in _EDGE_VALUES]
        for u in cases:
            assert to_csv(u) == _to_csv_per_row(u)
        assert "-0\n" in to_csv(cases[1])
