"""VAR(p) model utilities: panel containers, companion-form stationarity
checks, data generation for synthetic experiments, lag-matrix construction,
and one-step forecasting.

A stacked coefficient matrix A is (d, p*d): horizontally concatenated lag
blocks [A_1 | A_2 | ... | A_p], so y_t = A_1 y_{t-1} + ... + A_p y_{t-p} + e_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matops import check_matrix, svd_truncate


@dataclass(frozen=True)
class TimeSeriesPanel:
    """One client's observed series.

    presample : (p, d) rows used only to form lagged regressors
    observations : (t_len, d) rows entering the loss / evaluation

    A panel carries no name; the harness names a client by its
    PanelSpec.label.  The harness reads a panel once, through its
    ``lag_design``: a fit at forecast origin t uses rows [:t] of that
    design and the forecast is scored on row t, so no fit looks ahead.
    """

    presample: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        pre = check_matrix(self.presample, "presample")
        obs = check_matrix(self.observations, "observations")
        if pre.shape[1] != obs.shape[1]:
            raise ValueError(
                f"presample has {pre.shape[1]} columns, observations "
                f"{obs.shape[1]}"
            )
        if obs.shape[0] < 1:
            raise ValueError("panel needs at least one observation")
        object.__setattr__(self, "presample", pre)
        object.__setattr__(self, "observations", obs)

    @property
    def d(self):
        return self.observations.shape[1]

    @property
    def p(self):
        return self.presample.shape[0]

    @property
    def t_len(self):
        return self.observations.shape[0]


@dataclass(frozen=True)
class CoefDecomposition:
    """Fitted pair (shared part a0, client deviation delta), both (d, p*d)."""

    a0: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        a0 = check_matrix(self.a0, "a0")
        delta = check_matrix(self.delta, "delta")
        if a0.shape != delta.shape:
            raise ValueError(f"a0 shape {a0.shape} != delta shape {delta.shape}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "delta", delta)

    @property
    def a(self):
        return self.a0 + self.delta


@dataclass(frozen=True)
class LagDesign:
    """Regression view of a panel: y rows are observations, x rows are
    the stacked lags [y_{t-1}, ..., y_{t-p}].

    The loss (1/T) ||Y - X A'||_F^2 and everything fitted from it depend on
    the data only through three sufficient statistics, computed once here:

    sxx : (pd, pd) X'X / T, symmetric
    sxy : (pd, d) X'Y / T
    syy : tr(Y'Y) / T

    Every solver reads these, so the cost of a gradient, an objective
    value or a ridge solve does not grow with T.  The statistics are
    read-only arrays; x and y are kept as given.  Data whose statistics
    overflow float64 raise ValueError naming the statistic.
    """

    x: np.ndarray
    y: np.ndarray
    sxx: np.ndarray = field(init=False, repr=False, compare=False)
    sxy: np.ndarray = field(init=False, repr=False, compare=False)
    syy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = check_matrix(self.x, "x")
        y = check_matrix(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have equal row counts")
        if x.shape[1] % y.shape[1] != 0:
            raise ValueError("x width must be a multiple of y width")
        inv_t = 1.0 / y.shape[0]
        # finite data can still square past the float range; name the
        # statistic instead of letting inf reach a solver's LAPACK call
        with np.errstate(over="ignore", invalid="ignore"):
            sxx = (x.T @ x) * inv_t
            sxy = (x.T @ y) * inv_t
            syy = float(np.sum(y * y)) * inv_t
        for name, stat in (("sxx", sxx), ("sxy", sxy), ("syy", syy)):
            if not np.all(np.isfinite(stat)):
                raise ValueError(
                    f"lag design statistic {name} overflows: the data are too "
                    "large to square in float64"
                )
        sxx.flags.writeable = False
        sxy.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sxx", sxx)
        object.__setattr__(self, "sxy", sxy)
        object.__setattr__(self, "syy", syy)

    @property
    def t_len(self):
        return self.y.shape[0]

    @property
    def d(self):
        return self.y.shape[1]

    @property
    def pd(self):
        return self.x.shape[1]

    def loss(self, a):
        """Least-squares loss (1/T) ||Y - X A'||_F^2 at a (d, pd) matrix,
        in closed form syy - 2 <A, sxy'> + <A sxx, A>."""
        return self.syy - float(np.vdot(a, 2.0 * self.sxy.T - a @ self.sxx))


def _check_stacked(a, p):
    a = check_matrix(a, "coefficients")
    d = a.shape[0]
    if p < 1 or a.shape[1] != p * d:
        raise ValueError(
            f"stacked coefficients must be (d, p*d); got {a.shape} with p={p}"
        )
    return a, d


def lag_blocks(a, p):
    """Split a stacked (d, p*d) matrix into its p lag blocks."""
    a, d = _check_stacked(a, p)
    return [a[:, j * d : (j + 1) * d] for j in range(p)]


def companion_matrix(a, p):
    """The (p*d, p*d) companion form of a stacked coefficient matrix."""
    a, d = _check_stacked(a, p)
    comp = np.zeros((p * d, p * d))
    comp[:d, :] = a
    if p > 1:
        comp[d:, : (p - 1) * d] = np.eye((p - 1) * d)
    return comp


def companion_spectral_radius(a, p):
    """Spectral radius of the companion matrix; < 1 means stationary."""
    comp = companion_matrix(a, p)
    try:
        eig = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"eigenvalue computation failed on companion matrix: {exc}"
        ) from exc
    return float(np.max(np.abs(eig)))


def scale_lag_blocks(a, p, c):
    """Scale lag block j by c**j.  Under this scaling the companion
    spectral radius scales exactly linearly in c."""
    blocks = lag_blocks(a, p)
    return np.hstack([(c ** (j + 1)) * blk for j, blk in enumerate(blocks)])


def gen_low_rank(d, p, r, rng):
    """Rank-r truncation of a (d, p*d) standard Gaussian draw."""
    if not 1 <= r <= min(d, p * d):
        raise ValueError(f"rank r={r} outside [1, {min(d, p * d)}]")
    g = rng.standard_normal((d, p * d))
    out, _ = svd_truncate(g, r)
    return out


def _check_ball(q, s_q):
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    if s_q <= 0:
        raise ValueError("s_q must be positive")


def _lq_sum(x, q):
    return float(np.sum(np.abs(x) ** q))


def _ball_support_size(g, q, s_q, fro):
    """How many largest-magnitude entries of g fit in the lq ball once
    rescaled to Frobenius norm ``fro``: entries are added in order of
    decreasing magnitude for as long as the rescaled matrix stays inside."""
    mags = np.sort(np.abs(g), axis=None)[::-1]
    if mags[0] == 0.0:
        raise ValueError("degenerate zero deviation draw")
    lq = np.cumsum(mags**q) * (fro / np.sqrt(np.cumsum(mags**2))) ** q
    over = np.flatnonzero(lq > s_q)
    return mags.size if over.size == 0 else int(over[0])


def _largest_entries(g, m, fro):
    """The m largest-magnitude entries of g, the rest zero, rescaled to
    Frobenius norm ``fro``."""
    keep = np.argsort(-np.abs(g), axis=None, kind="stable")[:m]
    out = np.zeros_like(g)
    out.flat[keep] = g.flat[keep]
    return out * (fro / np.linalg.norm(out))


def _common_factor(a0, deltas, p, target_radius):
    """Factor c putting the largest radius of a0 + delta_k at target_radius
    (1 when every radius is zero)."""
    max_radius = max(companion_spectral_radius(a0 + dk, p) for dk in deltas)
    return 1.0 if max_radius == 0.0 else target_radius / max_radius


def assemble_dgp(
    d,
    p,
    r,
    k_clients,
    rng,
    q=0.1,
    s_q=10.0,
    ratio=5.0,
    target_radius=0.9,
):
    """Draw a shared low-rank matrix and sparse client deviations, jointly
    rescaled.

    Steps: a0 is a rank-r Gaussian truncation.  Each delta_k starts from
    one standard Gaussian (d, p*d) draw and keeps its largest-magnitude
    entries, rescaled so that ||a0||_F : ||delta_k||_F = ratio : 1, for as
    long as the kept matrix lies in the lq ball sum |delta_k|^q <= s_q.
    ``ratio`` fixes the deviation's size and (q, s_q) how far that size may
    spread, so together they set the support: the defaults (q = 0.1,
    s_q = 10, ratio = 5) keep about 10 nonzero entries at d = 20.  Finally
    one common factor is applied to every lag block so the largest client
    spectral radius equals target_radius; a common factor keeps a0 shared
    across clients.  Where that factor pushes a deviation out of the ball,
    its smallest kept entry is dropped and the factor recomputed, so every
    returned deviation lies in the ball.  ratio None means all deltas are
    exactly zero.

    The variates drawn are the same for any (q, s_q, ratio): one (d, p*d)
    draw for a0 and one per client, so paths simulated afterwards from the
    same generator use the same innovations.

    Raises ValueError when not even one entry of Frobenius norm
    ||a0||_F / ratio fits in the ball.

    Returns (a0, [delta_1, ..., delta_K]).
    """
    if k_clients < 1:
        raise ValueError("k_clients must be >= 1")
    _check_ball(q, s_q)
    a0 = gen_low_rank(d, p, r, rng)
    if ratio is None:
        deltas = [np.zeros((d, p * d)) for _ in range(k_clients)]
        c = _common_factor(a0, deltas, p, target_radius)
        return scale_lag_blocks(a0, p, c), deltas
    if ratio <= 0:
        raise ValueError("ratio must be positive (or None for no deltas)")
    fro = np.linalg.norm(a0) / ratio
    draws = [rng.standard_normal((d, p * d)) for _ in range(k_clients)]
    sizes = [_ball_support_size(g, q, s_q, fro) for g in draws]
    while True:
        if min(sizes) == 0:
            raise ValueError(
                f"no deviation at ratio {ratio} fits in the ball "
                f"sum |x|^{q} <= {s_q}"
            )
        deltas = [_largest_entries(g, m, fro) for g, m in zip(draws, sizes)]
        c = _common_factor(a0, deltas, p, target_radius)
        deltas = [scale_lag_blocks(dk, p, c) for dk in deltas]
        over = [_lq_sum(dk, q) > s_q for dk in deltas]
        if not any(over):
            return scale_lag_blocks(a0, p, c), deltas
        sizes = [m - o for m, o in zip(sizes, over)]


def check_stationary(a, p):
    """Raise ValueError unless the stacked (d, p*d) coefficients have
    companion spectral radius < 1."""
    radius = companion_spectral_radius(a, p)
    if radius >= 1.0:
        raise ValueError(
            f"non-stationary coefficients (companion radius {radius:.4f})"
        )


def simulate_paths(coefs, p, t_lens, rngs, burn_in=200):
    """Simulate a stack of stationary VAR(p) paths, each started from a
    zero state, in one recursion.

    Parameters
    ----------
    coefs : sequence of (d, p*d) stacked coefficients, one per path, all
        of one d, each of companion radius < 1
    t_lens : each path's number of retained observations after the
        presample
    rngs : each path's numpy Generator.  Path i draws exactly
        (burn_in + p + t_lens[i]) standard normal innovation rows from
        rngs[i], the paths in order, so paths that share a generator
        draw from it in turn, as consecutive ``simulate`` calls would
    burn_in : discarded initial steps before the presample

    Every step is one stacked matrix-vector product per lag, its terms
    added in lag order, so path i is bitwise
    ``simulate(coefs[i], p, t_lens[i], rngs[i], burn_in)``.  A path
    shorter than the longest runs on past its end over zero innovations,
    and those rows are dropped.

    Returns one TimeSeriesPanel per path, of p presample rows and
    t_lens[i] observations; each panel views one path of the stack.
    """
    coefs, t_lens, rngs = list(coefs), list(t_lens), list(rngs)
    if not coefs:
        raise ValueError("need at least one path")
    if not len(t_lens) == len(rngs) == len(coefs):
        raise ValueError(
            f"{len(coefs)} coefficient matrices, {len(t_lens)} lengths and "
            f"{len(rngs)} generators"
        )
    checked = [_check_stacked(a, p) for a in coefs]
    d = checked[0][1]
    if any(di != d for _, di in checked):
        raise ValueError("every path must have the same number of variables")
    if min(t_lens) < 1:
        raise ValueError("t_len must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    for a, _ in checked:
        check_stationary(a, p)
    n, lengths = len(coefs), [burn_in + p + t for t in t_lens]
    # BLAS picks its matrix-vector kernel by memory layout, and the kernels
    # round differently; one C-ordered stack makes a path a function of
    # the values
    stack = np.empty((n, d, p * d))
    for i, (a, _) in enumerate(checked):
        stack[i] = a
    blocks = [stack[:, :, j * d : (j + 1) * d] for j in range(p)]
    # The recursion runs in place on the fresh innovations, through a list
    # of (n, d, 1) row views so each step indexes a list, not the array.
    # Row t adds its lag terms in lag order, one stacked product per lag
    # (a matrix-vector BLAS call per path); that order fixes the rounding,
    # so a path is a bitwise function of its draws.
    y = np.zeros((n, max(lengths), d))
    for i, (rng, length) in enumerate(zip(rngs, lengths)):
        rng.standard_normal(out=y[i, :length])
    rows = list(y.transpose(1, 0, 2)[:, :, :, None])
    for t, row in enumerate(rows):
        for j, blk in enumerate(blocks[:t]):
            row += blk @ rows[t - j - 1]
    return [
        TimeSeriesPanel(
            presample=y[i, burn_in : burn_in + p],
            observations=y[i, burn_in + p : burn_in + p + t_len],
        )
        for i, t_len in enumerate(t_lens)
    ]


def simulate(a, p, t_len, rng, burn_in=200):
    """Simulate a stationary VAR(p) path started from a zero state: the
    one-path call of ``simulate_paths``.

    Parameters
    ----------
    a : (d, p*d) stacked coefficients, companion radius must be < 1
    t_len : number of retained observations after the presample
    rng : numpy Generator; exactly (burn_in + p + t_len) standard normal
        innovation rows are drawn, so equal seeds replay the identical path
    burn_in : discarded initial steps before the presample

    Returns a TimeSeriesPanel of p presample rows and t_len observations.
    """
    (panel,) = simulate_paths([a], p, [t_len], [rng], burn_in)
    return panel


def lag_design(panel):
    """Stack lagged regressors: row t of x is [y_{t-1}, ..., y_{t-p}].

    y is the panel's observations themselves, not a copy, when they are
    C-ordered (a C-ordered copy otherwise), so it aliases the panel; the
    statistics are bitwise those of a copy.
    """
    p, t_len = panel.p, panel.t_len
    if p < 1:
        raise ValueError("panel needs a presample of at least one row")
    full = np.vstack([panel.presample, panel.observations])
    cols = [full[p - j : p - j + t_len] for j in range(1, p + 1)]
    return LagDesign(x=np.hstack(cols), y=np.ascontiguousarray(panel.observations))


def forecast_one_step(a, recent):
    """One-step-ahead point forecast from the last p observations.

    ``recent`` rows are ordered oldest to newest, matching panel layout;
    the most recent observation is recent[-1].
    """
    recent = check_matrix(recent, "recent")
    p = recent.shape[0]
    a, d = _check_stacked(a, p)
    if recent.shape[1] != d:
        raise ValueError(f"recent must have {d} columns")
    x = np.concatenate([recent[p - j] for j in range(1, p + 1)])
    return a @ x
