"""DOP853, the explicit Runge-Kutta 8(5, 3) pair of Dormand and Prince.

A port of scipy.integrate's DOP853 solver (scipy 1.17, `_ivp/rk.py` and
`_ivp/common.py`) for the zero-energy solves of `resonance`.  It repeats
scipy's arithmetic operation for operation: the same `np.dot` calls on the
same slices, the initial-step rule, the step-size control, the E5/E3 error
norm and the dense output.  So `dop853(fun, t0, t1, y0, tol, dense)` gives
`solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=tol, atol=tol,
dense_output=dense)`'s step times, end state and interpolated values bit for
bit; tests/test_dop853.py holds the two against each other.

The zero-energy states are three numbers per potential, so a solve costs
interpreter work, not arithmetic.  The vector operations stay the numpy
calls that scipy makes: the stage dots `K[:s].T @ A[s, :s]` (BLAS sums in
its own order, which a Python sum would not repeat), the scale
`atol + max(|y|, |y_new|) * rtol`, the E5/E3 dots and the dense `D @ K`;
the right-hand sides of `resonance` keep numpy's `exp`, which rounds
differently from `math.exp`.  A stage argument is formed in one
preallocated buffer as `K[:s].T.dot(a, out=buf); buf *= h; buf += y`, the
roundings of scipy's `y + np.dot(K[:s].T, a) * h`.  The scalar
bookkeeping runs on Python floats, the same IEEE operations as on numpy
scalars: t, h, |h|, the ten-spacing minimum step (`math.nextafter`), the
step factor, and each error norm as `math.sqrt(e.dot(e)) ** 2`, which is
`np.linalg.norm(e) ** 2` (`** 2` is C `pow`, as for an `np.float64`; it
is not always `x * x` to the last bit).  One 1e-12 solve of the default
bump at its resonant coupling (62 accepted steps, 914 right-hand-side
calls) takes 3.8-4.1 ms this way against 6.0-7.0 ms on numpy scalars
(medians of 30 interleaved runs in three sets, one BLAS thread, 2-core
x86_64).

The coefficients (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, Sec. II.10) are the shortest float literals that round-trip to
scipy's tables.  Rows 1-11 of `A` are the step's stages, row 12 the
solution weights `B`, rows 13-15 the three extra stages of the dense output.
"""

import math

import numpy as np

from .errors import RobinwgError

# the strictly lower triangle of A, row by row
_A_LOWER = np.array([0.05260015195876773, 0.0197250569845379,
    0.0591751709536137, 0.02958758547680685, 0, 0.08876275643042054,
    0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023, 0.6241109587160757, 0, 0,
    -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538, 0, 0,
    -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0,
    4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
    0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
    0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
    4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987])
C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0])
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
D = np.array([-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
    -3.0689499459498917, 2.38466765651207, 2.117034582445028,
    -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
    165.20045171727028, -374.5467547226902, -22.113666853125306,
    7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448,
    35.81684148639408, 19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
    -189.17813819516758, 527.8081592054236, -11.57390253995963,
    6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716,
    11.99229113618279, -25.69393346270375, 0, 0, 0, 0, -154.18974869023643,
    -231.5293791760455, 357.6391179106141, 93.40532418362432,
    -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544,
    -149.72683625798564]).reshape(4, 16)

A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = _A_LOWER
B = A[12, :12]

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
EXPONENT = -1 / 8           # -1 / (error estimator order 7 + 1)
RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """scipy's `select_initial_step` for order 7, forward, no max step."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


class Solution:
    """The step times `t` and end state `y` of one `dop853` run.

    With dense output, calling it evaluates the step interpolants at the
    points `s` (shape (n_states, len(s))) as scipy's `OdeSolution` does: a
    point on a step boundary belongs to the step that ends there.
    """

    def __init__(self, t, y, y_old, F):
        self.t, self.y, self._y_old, self._F = np.array(t), y, y_old, F

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(self.t, s, side="left") - 1,
                    0, len(self.t) - 2)
        t_old = self.t[k]
        x = ((s - t_old) / (self.t[k + 1] - t_old))[:, None]
        F = self._F[k]
        y = np.zeros((len(s), F.shape[2]))
        # Dop853DenseOutput's Horner loop in x and 1 - x
        for i in range(7):
            y += F[:, 6 - i]
            y *= x if i % 2 == 0 else 1 - x
        y += self._y_old[k]
        return y.T


def dop853(fun, t0, t_bound, y0, tol, dense=False):
    """Integrate y' = fun(t, y) from t0 to t_bound > t0; rtol = atol = tol.

    Like scipy, rtol (not atol) is floored at 100 machine epsilons.  Raises
    RobinwgError when the step size falls below ten float spacings at t, or
    is NaN (where scipy would loop for ever).

    `fun` may return its argument or a view of it: every stage argument is
    one buffer that the stepper overwrites and never keeps, and what `fun`
    returns is copied into a row of K, never kept itself.
    """
    rtol, atol = max(tol, RTOL_FLOOR), tol
    t, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0, dtype=float)
    n = y.size
    K = np.empty((16, n))
    K[0] = fun(t, y)
    h_abs = float(_initial_step(fun, t, y, t_bound, K[0], rtol, atol))
    buf = np.empty(n)
    # stage s combines K[:s] by A[s, :s]; the views are made once per run
    stages = [(K[:s].T, A[s, :s], c) for s, c in enumerate(C.tolist())]
    K12, K13 = K[:12].T, K[:13].T

    def run_stages(t, y, h, first, stop):
        # a local name, as `arg *= ...` rebinds it; numpy multiplies by a
        # 0-d array faster than by a Python float
        arg, h_arr = buf, np.array(h)
        for s in range(first, stop):
            Ks, a, c = stages[s]
            # y + np.dot(Ks, a) * h, rounded the same way, in one buffer
            Ks.dot(a, out=arg)
            arg *= h_arr
            arg += y
            K[s] = fun(t + c * h, arg)

    ts, y_olds, Fs = [t], [], []
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise RobinwgError(
                    "zero-energy integration failed: required step size is "
                    f"less than spacing between numbers at s = {t!r}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            run_stages(t, y, h, 1, 12)
            y_new = y + h * K12.dot(B)
            K[12] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = K13.dot(E5) / scale
            err3 = K13.dot(E3) / scale
            # np.linalg.norm(e) ** 2, on Python floats
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                # 0.01 err3^2 can underflow to 0 with err5 = 0: numpy's
                # 0/0 there is nan (a rejected step), where Python raises
                error_norm = (h_abs * err5_norm_2 / math.sqrt(denom * n)
                              if denom else math.nan)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
        if dense:
            run_stages(t, y, h, 13, 16)
            F = np.empty((7, n))
            delta_y = y_new - y
            F[0] = delta_y
            F[1] = h * K[0] - delta_y
            F[2] = 2 * delta_y - h * (K[12] + K[0])
            F[3:] = h * np.dot(D, K)
            y_olds.append(y)
            Fs.append(F)
        # the last stage is the next step's first; no stage overwrites K[0]
        t, y = t_new, y_new
        K[0] = K[12]
        ts.append(t)
    return Solution(ts, y, np.array(y_olds), np.array(Fs))
