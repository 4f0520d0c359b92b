import numpy as np
import pytest

from omneg import smallmat
from omneg.errors import EigenFailure, SingularSolve


def test_eigenvalues_of_diagonal_matrix():
    w = smallmat.eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert w.dtype == complex
    assert sorted(w.real) == pytest.approx([-1.0, 2.0, 3.0], abs=1e-12)
    assert np.abs(w.imag).max() < 1e-12


def test_eigenvalues_of_rotation_block():
    # [[0, 1], [-1, 0]] has spectrum +/- i
    w = smallmat.eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
    assert sorted(w.imag) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert np.abs(w.real).max() < 1e-12


def test_eigenvalues_nonfinite_raises_eigen_failure():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(EigenFailure):
            smallmat.eigenvalues([[bad, 0.0], [0.0, 1.0]])


def solve_one(a, b):
    """Solve one system as a stack of one: (x, failure)."""
    x, failures = smallmat.solve(np.asarray(a)[None], np.asarray(b)[None])
    return x[0], failures[0]


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((36, 36)) + 36.0 * np.eye(36)
    x = rng.standard_normal(36)
    got, failure = solve_one(a, a @ x)
    assert failure is None
    assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x)


def test_solve_needs_row_swaps():
    # zero leading pivot forces the partial-pivot path
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    got, failure = solve_one(a, [2.0, 3.0])
    assert failure is None
    assert got == pytest.approx([3.0, 2.0])


def test_solve_singular_matrix_is_flagged():
    # the row swap brings [2, 4] up, and [1, 2] then eliminates to zero
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    _, failure = solve_one(a, [1.0, 1.0])
    assert isinstance(failure, SingularSolve)
    assert str(failure) == "pivot 0.000e+00 below 6.000e-14 in column 1"


def test_solve_pivot_threshold_is_relative_to_matrix_norm():
    # pivot 1e-16 against row norms of order 1 falls below 1e-14 * ||A||_inf
    _, failure = solve_one(np.diag([1.0, 1e-16]), [1.0, 1.0])
    assert isinstance(failure, SingularSolve)
    assert str(failure) == "pivot 1.000e-16 below 1.000e-14 in column 1"
    # the same ratio scaled up stays solvable
    got, failure = solve_one(np.diag([1.0, 1e-2]), [1.0, 1.0])
    assert failure is None
    assert got[1] == pytest.approx(1e2)


def lyapunov_systems(count, seed):
    """Vectorized Lyapunov systems of random stable 6x6 drifts, with RHS."""
    rng = np.random.default_rng(seed)
    eye = np.eye(6)
    lhs, rhs = [], []
    for _ in range(count):
        a = rng.standard_normal((6, 6))
        m = a - (np.linalg.eigvals(a).real.max() + 0.5) * eye
        lhs.append(np.kron(m, eye) + np.kron(eye, m))
        rhs.append(-np.diag(rng.uniform(0.0, 2.0, 6)).ravel())
    return np.array(lhs), np.array(rhs)


def test_solve_stack_matches_single_systems_bit_for_bit():
    lhs, rhs = lyapunov_systems(40, seed=5)
    x, failures = smallmat.solve(lhs, rhs)
    assert failures == [None] * 40
    single = np.array([solve_one(a, b)[0] for a, b in zip(lhs, rhs)])
    assert np.array_equal(x.view(np.int64), single.view(np.int64))


@pytest.mark.filterwarnings("error")
def test_solve_stack_flags_singular_system_alone():
    # the 1e-16 pivot divides within its own system only: no warning,
    # and the neighbours' solutions are those they get alone
    good = np.array([[0.0, 2.0], [3.0, 1.0]]), np.array([[4.0, 1.0], [1.0, 3.0]])
    singular = np.diag([1.0, 1e-16])
    zero = np.zeros((2, 2))
    stack = np.array([good[0], singular, good[1], zero])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0], [1.0, 1.0]])
    x, failures = smallmat.solve(stack, rhs)
    for i in (1, 3):
        _, alone = solve_one(stack[i], rhs[i])
        assert isinstance(failures[i], SingularSolve)
        assert str(failures[i]) == str(alone)
    for i in (0, 2):
        assert failures[i] is None
        assert np.array_equal(x[i], solve_one(stack[i], rhs[i])[0])


def test_solve_shape_checks():
    with pytest.raises(ValueError):
        smallmat.solve(np.eye(2)[None], np.zeros((1, 3)))


def test_det_4x4_block_diagonal():
    a = np.zeros((4, 4))
    a[0:2, 0:2] = [[2.0, 1.0], [1.0, 2.0]]   # det 3
    a[2:4, 2:4] = [[0.0, -1.0], [1.0, 0.0]]  # det 1
    assert smallmat.det(a[None])[0] == pytest.approx(3.0, rel=1e-14)


def test_det_4x4_singular_is_zero():
    a = np.ones((4, 4))
    assert smallmat.det(a[None])[0] == 0.0


def test_det_stack_matches_single_calls_bit_for_bit():
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((40, 4, 4))
    got = smallmat.det(stack)
    assert got.shape == (40,)
    single = np.array([smallmat.det(a[None])[0] for a in stack])
    assert np.array_equal(got.view(np.int64), single.view(np.int64))


@pytest.mark.filterwarnings("error")
def test_det_stack_zero_pivot_is_zero_alone():
    # the zero column meets a zero pivot at k = 1, whose division stays
    # in its own system: no warning, and its neighbours come out as alone
    rng = np.random.default_rng(19)
    stack = rng.standard_normal((3, 4, 4))
    stack[1, :, 1] = 0.0
    got = smallmat.det(stack)
    assert got[1] == 0.0 and smallmat.det(stack[1, None])[0] == 0.0
    for i in (0, 2):
        assert got[i] == smallmat.det(stack[i, None])[0] != 0.0


def test_kron_block_structure():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    b = np.eye(2)
    k = smallmat.kron(a, b)
    assert k.shape == (4, 4)
    assert np.array_equal(k[0:2, 2:4], 2.0 * b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kron_matches_numpy_bit_for_bit():
    # signed zeros, infinities and NaN come from the same products
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 4, 4))
    a[0, 0, 0], a[1, 2, 3], a[2, 1, 1] = -0.0, np.inf, np.nan
    b = rng.standard_normal((2, 3))
    for x, y in ((a[0], b), (b, a[1]), (a[2], a[1])):
        assert np.array_equal(smallmat.kron(x, y).view(np.int64), np.kron(x, y).view(np.int64))
    eye = np.eye(4)
    for stacked in (smallmat.kron(a, eye), smallmat.kron(eye, a)):
        assert stacked.shape == (3, 16, 16)
    for i in range(3):
        assert np.array_equal(smallmat.kron(a, eye)[i].view(np.int64), np.kron(a[i], eye).view(np.int64))
        assert np.array_equal(smallmat.kron(eye, a)[i].view(np.int64), np.kron(eye, a[i]).view(np.int64))


def test_frob_norm():
    assert smallmat.frob_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert smallmat.frob_norm(np.zeros((6, 6))) == 0.0
    stack = np.array([[[3.0, 4.0]], [[0.0, -2.0]]])
    assert np.array_equal(smallmat.frob_norm(stack), [5.0, 2.0])
