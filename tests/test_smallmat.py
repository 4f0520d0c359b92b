import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omneg import smallmat, sweep
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
    """Solve one system for one right-hand side as a stack of one: (x, failure)."""
    x, failures = smallmat.solve(np.asarray(a)[None], np.asarray(b)[None, None])
    return x[0, 0], failures[0]


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
    x, failures = smallmat.solve(lhs, rhs[:, None])
    assert failures == [None] * 40
    single = np.array([solve_one(a, b)[0] for a, b in zip(lhs, rhs)])
    assert np.array_equal(x[:, 0].view(np.int64), single.view(np.int64))
    # r = 3 right-hand sides per system: each column's x is its r = 1 x
    rhs3 = np.stack([rhs, np.random.default_rng(7).standard_normal(rhs.shape), -rhs], axis=1)
    x3, failures = smallmat.solve(lhs, rhs3)
    assert x3.shape == (40, 3, 36) and failures == [None] * 40
    for j in range(3):
        x1, _ = smallmat.solve(lhs, rhs3[:, j, None])
        assert np.array_equal(x3[:, j].view(np.int64), x1[:, 0].view(np.int64))


@pytest.mark.filterwarnings("error")
def test_solve_stack_flags_singular_system_alone():
    # the 1e-16 pivot divides within its own system only: no warning,
    # and the neighbours' solutions are those they get alone
    good = np.array([[0.0, 2.0], [3.0, 1.0]]), np.array([[4.0, 1.0], [1.0, 3.0]])
    singular = np.diag([1.0, 1e-16])
    zero = np.zeros((2, 2))
    stack = np.array([good[0], singular, good[1], zero])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0], [1.0, 1.0]])
    x, failures = smallmat.solve(stack, rhs[:, None])
    for i in (1, 3):
        _, alone = solve_one(stack[i], rhs[i])
        assert isinstance(failures[i], SingularSolve)
        assert str(failures[i]) == str(alone)
    for i in (0, 2):
        assert failures[i] is None
        assert np.array_equal(x[i, 0], solve_one(stack[i], rhs[i])[0])


def test_solve_shape_checks():
    with pytest.raises(ValueError):
        smallmat.solve(np.eye(2)[None], np.zeros((1, 1, 3)))


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



@pytest.mark.parametrize("layout", ["C", "transposed", "fortran"])
def test_det_sign_per_system_in_mixed_stack(layout):
    # permutations needing 0, 1, 2 and 3 row swaps have determinants
    # +1, -1, +1, -1 exactly, interleaved with random systems; a
    # transposed or Fortran-ordered stack is not C-contiguous and has
    # the same determinants
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 3, 2), (3, 0, 1, 2)]
    rng = np.random.default_rng(23)
    randoms = rng.standard_normal((4, 4, 4))
    stack = np.empty((8, 4, 4))
    stack[0::2] = [np.eye(4)[list(perm)] for perm in perms]
    stack[1::2] = randoms
    if layout == "transposed":
        stack = stack.transpose(0, 2, 1)
    elif layout == "fortran":
        stack = np.asfortranarray(stack)
    got = smallmat.det(stack)
    assert list(got[0::2]) == [1.0, -1.0, 1.0, -1.0]
    assert got[1::2] == pytest.approx(np.linalg.det(randoms), rel=1e-12)

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


# stack sizes around the sweep's stack, and which systems of a stack
# are made singular, given -0.0 entries or given a non-finite entry
STACK_SIZES = st.sampled_from([1, 2, sweep.STACK_ROWS, sweep.STACK_ROWS + 1])
SPECIALS = st.fixed_dictionaries({
    kind: st.integers(0, sweep.STACK_ROWS)
    for kind in ("singular", "signed_zero", "non_finite")
})


def with_specials(stack, specials, bad):
    """stack with its specials made, each at its index modulo the stack size."""
    stack = stack.copy()
    size, n, _ = stack.shape
    singular = stack[specials["singular"] % size]
    singular[n // 2] = singular[n // 2 - 1]
    signed = stack[specials["signed_zero"] % size]
    signed[signed == 0.0] = -0.0
    signed[:, 1] = -0.0
    stack[specials["non_finite"] % size, n - 1, 0] = bad
    return stack


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(size=STACK_SIZES, r=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
       specials=SPECIALS, bad=st.sampled_from([np.inf, -np.inf, np.nan]))
def test_solve_matches_row_major_reference_bit_for_bit(size, r, seed, specials, bad):
    # Kronecker sums of random 6x6 drifts, with one singular system, one
    # holding -0.0 entries and one non-finite system among them
    rng = np.random.default_rng(seed)
    drifts = rng.standard_normal((size, 6, 6))
    eye = np.eye(6)
    lhs = with_specials(smallmat.kron(drifts, eye) + smallmat.kron(eye, drifts), specials, bad)
    rhs = rng.standard_normal((size, r, 36))
    rhs[specials["signed_zero"] % size, :, ::4] = -0.0
    x, failures = smallmat.solve(lhs, rhs)
    want, want_failures = oracles.rowmajor_solve(lhs, rhs)
    assert np.array_equal(x.view(np.int64), want.view(np.int64))
    assert [None if f is None else str(f) for f in failures] == [
        None if f is None else str(f) for f in want_failures
    ]
    singular, non_finite = (specials[kind] % size for kind in ("singular", "non_finite"))
    if singular != non_finite:
        assert isinstance(failures[singular], SingularSolve)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(size=STACK_SIZES, seed=st.integers(0, 2**32 - 1), specials=SPECIALS,
       bad=st.sampled_from([np.inf, -np.inf, np.nan]))
def test_det_matches_row_major_reference_bit_for_bit(size, seed, specials, bad):
    # random 4x4 systems with a singular one, -0.0 entries and a
    # non-finite one; a Fortran-ordered copy gives the same bits
    stack = np.random.default_rng(seed).standard_normal((size, 4, 4))
    stack[:, 2, 3] = 0.0
    stack = with_specials(stack, specials, bad)
    want = oracles.rowmajor_det(stack)
    for layout in (stack, np.asfortranarray(stack)):
        assert np.array_equal(smallmat.det(layout).view(np.int64), want.view(np.int64))
    singular, non_finite = (specials[kind] % size for kind in ("singular", "non_finite"))
    if singular != non_finite:
        assert want[singular] == 0.0


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
