"""Special functions of the gamma start: log-gamma, the normal CDF, gamma quantiles.

lgam and ndtr are line-for-line ports of Moshier's Cephes library (1989,
Methods and Programs for Mathematical Functions, Prentice-Hall), the code
behind scipy.special.gammaln and scipy.special.ndtr: the same polynomial
coefficients, evaluated in the same order with the C library's log and exp
(math.log, math.exp), so each gives SciPy's value to the bit.

gamma_quantile solves P(a, x) = p, or Q(a, x) = p for the upper tail, where
P and Q are the regularised lower and upper incomplete gamma functions.  It
follows DiDonato & Morris (1986, ACM TOMS 12, 377-393) in outline: a
Wilson-Hilferty start (or, for a < 1, the small-x limit of P), then Newton
steps on log F(a, e^t) in t = log x.  That function is concave for both
tails (log X has a log-concave density), so after the first step the
iterates approach the root from one side.  P comes from its power series;
Q from Legendre's continued fraction, from 1 - P below x = a, and for
a < 1 and small x from the series of gamma(a, x), as 1 - P loses digits
there.  The factor x^a e^-x / Gamma(a + 1) that all of them carry is
computed as exp(a log1pmx(x/a - 1)) over Stirling's formula for a >= 1, so
its logarithm does not cancel O(a log x) terms.  Above a = 1e4 both tails
come from Temme's uniform asymptotic expansion (NIST DLMF 8.12) instead,
whose cost does not grow with a.

All of it is scalar float arithmetic; nothing here imports NumPy or SciPy.
"""

from __future__ import annotations

import math

__all__ = ["lgam", "ndtr", "gamma_quantile"]

# --- cephes lgam --------------------------------------------------------------

# Stirling's formula expansion of log Gamma
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
# log Gamma between 2 and 3 is x * B(x) / C(x); C is monic
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule as cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: cephes p1evl, a monic polevl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0, as cephes lgam (scipy.special.gammaln)."""
    if math.isnan(x):
        return x
    if not x > 0.0:
        raise ValueError(f"lgam needs x > 0, not {x!r}")
    if x == math.inf:
        return x
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


# --- cephes ndtr, erf and erfc ------------------------------------------------

_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
           2.23200534594684319226E3, 7.00332514112805075473E3,
           5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
           4.59432382970980127987E3, 2.26290000613890934246E4,
           4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.707106781186547524400844362104849039


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _NDTR_P)
        q = _p1evl(x, _NDTR_Q)
    else:
        p = _polevl(x, _NDTR_R)
        q = _p1evl(x, _NDTR_S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)


def ndtr(a: float) -> float:
    """Standard normal CDF, as cephes ndtr (scipy.special.ndtr)."""
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


# --- gamma quantiles ----------------------------------------------------------

_EPS = 2.0 ** -52
_LOG_TINY = -745.1332191019412  # log(2**-1075): below it a positive x rounds to 0
_LOG_2PI = 1.8378770664093454835606594728112
# Stirling's correction log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2,
# B_2k / (2k (2k - 1) a^(2k - 1)) for k = 1..7
_STIRLING = (0.0064102564102564102564, -0.0019175269175269175269,
             0.00084175084175084175084, -0.00059523809523809523810,
             0.00079365079365079365079, -0.0027777777777777777778,
             0.083333333333333333333)
# Temme's C_k(eta) = sum_n d_kn eta^n of Q(a, x) = erfc(eta sqrt(a/2))/2
# + exp(-a eta^2/2) / sqrt(2 pi a) * sum_k C_k(eta) / a^k (NIST DLMF 8.12.8),
# highest power first; d_kn from exact rational arithmetic on the recurrence
# C_k = C_(k-1)'/eta + (-1)^k g_k/(lambda - 1) (DLMF 8.12.9-8.12.11)
_TEMME = (
    (-2.5514193994946248e-11, 9.14769958223679e-10, -4.382036018453353e-09,
     1.0261809784240309e-08, 6.707853543401498e-09, -1.7665952736826078e-07,
     8.296711340953087e-07, -1.85406221071516e-06, -2.185448510679992e-06,
     3.919263178522438e-05, -0.0001787551440329218, 0.0003527336860670194,
     0.0011574074074074073, -0.014814814814814815, 0.08333333333333333,
     -0.3333333333333333),
    (4.162792991842583e-10, -1.0091543710600413e-09, -1.7543241719747647e-11,
     1.1951628599778148e-08, -5.752545603517705e-08, 1.378633446915721e-07,
     4.647127802807434e-09, -1.6120900894563446e-06, 7.64916091608111e-06,
     -1.8098550334489977e-05, -4.018775720164609e-07, 0.00020576131687242798,
     -0.0009902263374485596, 0.0026455026455026454, -0.003472222222222222,
     -0.001851851851851852),
    (9.428356159014678e-13, -1.3670488396617114e-09,
     6.228974084922022e-09, -1.409252991086752e-08, -2.0477098421990866e-10,
     1.4280614206064242e-07, -6.298992138380055e-07, 1.3721957309062934e-06,
     3.423578734096138e-08, -1.2760635188618728e-05, 5.2923448829120125e-05,
     -0.0001073665322636516, 2.0093878600823047e-06, 0.0007716049382716049,
     -0.0026813271604938273, 0.004133597883597883),
)
_TEMME_A = 1.0e4  # Temme's expansion above this a, the series and fraction below


def _log1pmx(x: float, a: float) -> float:
    """log(1 + y) - y for y = (x - a) / a, without cancellation near x = a."""
    y = (x - a) / a
    if y < -0.6:
        # y has lost the low bits of x; x / a keeps them
        r = x / a
        return math.log(r) - r + 1.0
    if y <= 1.0:
        # log(1 + y) = 2 atanh(z) with z = y / (2 + y), and 2 z - y = -y z
        z = y / (2.0 + y)
        z2 = z * z
        s, k = 0.0, 41.0
        while k > 1.0:
            s = s * z2 + 1.0 / k
            k -= 2.0
        return 2.0 * z * z2 * s - y * z
    return math.log1p(y) - y


def _lgam1p(a: float) -> float:
    """log Gamma(1 + a) for 0 <= a < 1, with small relative error near a = 0.

    cephes' rational log Gamma(2 + a) = a B(a) / C(a) less log(1 + a).
    """
    return a * _polevl(a, _LGAM_B) / _p1evl(a, _LGAM_C) - math.log1p(a)


def _stirling(a: float) -> float:
    """log Gamma(a) - (a - 1/2) log a + a - log(2 pi)/2 for a >= 1."""
    s = 0.0
    while a < 10.0:
        # mu(a) = mu(a + 1) + (a + 1/2) log(1 + 1/a) - 1
        s += (a + 0.5) * math.log1p(1.0 / a) - 1.0
        a += 1.0
    return s + _polevl(1.0 / (a * a), _STIRLING) / a


def _log_prefactor(a: float, x: float) -> float:
    """log of x^a e^-x / Gamma(a + 1), with no cancellation of O(a log x) terms."""
    if a < 1.0:
        return a * math.log(x) - x - _lgam1p(a)
    return a * _log1pmx(x, a) - 0.5 * (_LOG_2PI + math.log(a)) - _stirling(a)


def _p_series(a: float, x: float) -> float:
    """sum_n x^n / ((a + 1) ... (a + n)), so P(a, x) = prefactor * sum."""
    term = s = 1.0
    n = a
    while True:
        n += 1.0
        term *= x / n
        s += term
        if term <= s * _EPS * 0.5:
            return s


def _q_fraction(a: float, x: float) -> float:
    """Q(a, x) / (a * prefactor): Legendre's continued fraction, by modified Lentz."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 0.0
    while True:
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if d == 0.0 else d
        c = b + an / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h


def _q_small_a(a: float, x: float) -> float:
    """Q(a, x) for a < 1 and x <= 1.5, from the power series of gamma(a, x).

    Q = -expm1(t) + e^t a sum_(n>=1) (-1)^(n+1) x^n / (n! (a + n)) with
    t = a log x - log Gamma(1 + a); no cancellation for x < exp(-Euler gamma).
    """
    t = a * math.log(x) - _lgam1p(a)
    term, s, n = 1.0, 0.0, 0.0
    while True:
        n += 1.0
        term *= -x / n
        add = term / (a + n)
        s -= add
        if abs(add) <= abs(s) * _EPS * 0.5:
            break
    return -math.expm1(t) + math.exp(t) * a * s


def _tail(a: float, x: float, upper: bool) -> tuple[float, float]:
    """P(a, x) or Q(a, x), and x * density / tail = |d log tail / d log x|."""
    if a > _TEMME_A:
        eta = math.sqrt(-2.0 * _log1pmx(x, a))
        if x < a:
            eta = -eta
        k = a * eta * eta * 0.5
        # x * density = sqrt(a / 2 pi) exp(-a eta^2 / 2 - stirling(a))
        xf = math.exp(-k - _stirling(a)) * math.sqrt(a / (2.0 * math.pi))
        r = math.exp(-k) / math.sqrt(2.0 * math.pi * a) * (
            _polevl(eta, _TEMME[0])
            + (_polevl(eta, _TEMME[1]) + _polevl(eta, _TEMME[2]) / a) / a)
        z = eta * math.sqrt(0.5 * a)
        tail = 0.5 * _erfc(z) + r if upper else 0.5 * _erfc(-z) - r
        return tail, xf / tail
    xf = a * math.exp(_log_prefactor(a, x))
    if not upper:
        s = _p_series(a, x)
        return xf / a * s, a / s
    if a < 1.0 and x <= 1.5:
        tail = _q_small_a(a, x)
        return tail, xf / tail
    if x >= a:
        h = _q_fraction(a, x)
        return xf * h, 1.0 / h
    s = _p_series(a, x)
    tail = 1.0 - xf / a * s
    return tail, xf / tail


def gamma_quantile(a: float, p: float, upper: bool = False) -> float:
    """x with P(a, x) = p, or with Q(a, x) = p when upper, for a > 0.

    Newton's method on log F(a, e^t) in t = log x, which is concave, so
    after the first step the iterates approach the root from one side.  A
    quantile that rounds below the least subnormal is 0.0.  p = 0 and p = 1
    give the ends of the support.
    """
    if not a > 0.0:
        raise ValueError(f"gamma_quantile needs a > 0, not {a!r}")
    if not 0.0 < p < 1.0:
        if math.isnan(p):
            return p
        return 0.0 if (p <= 0.0) != upper else math.inf
    # Wilson-Hilferty, with the normal quantile of Abramowitz & Stegun 26.2.23
    r = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308)))
    if (p < 0.5) != upper:
        z = -z
    w = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    if a < 1.0 and (not upper or w < 0.5):
        # P(a, x) <= x^a / Gamma(1 + a), so this lies below the root
        t = (math.log1p(-p) if upper else math.log(p)) + _lgam1p(a)
        t /= a
        if t < _LOG_TINY:
            return 0.0
        x = math.exp(t)
    else:
        x = a * max(w, 0.1) ** 3
    x_last = a
    for _ in range(200):
        f, slope = _tail(a, x, upper)
        if not f > 0.0:
            # the start or the last step ran so far into the tail that it
            # underflowed: halve the way there in log x
            x = math.sqrt(x) * math.sqrt(x_last)
            continue
        # Newton's step in t: log(f / p), without cancellation near the root,
        # over the slope; x moves by a factor, so it keeps its low bits
        d = f - p
        step = (math.log1p(d / p) if abs(d) < 0.5 * p
                else math.log(f) - math.log(p)) / slope
        if not upper:
            step = -step
        x_last, x = x, x * math.exp(step)
        while x == 0.0:
            step *= 0.5
            x = x_last * math.exp(step)
        if abs(step) < 1e-11 or x == x_last:
            return x
    raise RuntimeError(f"gamma_quantile({a!r}, {p!r}) did not converge")
