"""Adaptive Gauss-Kronrod quadrature: QUADPACK's QAGS, one panel per array call.

A port of dqagse and its helpers dqk21, dqpsrt and dqelg (Piessens,
de Doncker-Kapenga, Ueberhuber & Kahaner 1983, QUADPACK, Springer): the
adaptive 21-point Gauss-Kronrod rule with bisection and Wynn's epsilon
extrapolation that scipy.integrate.quad runs on a finite interval.  The
integrand maps a 1-d array of points to their values, so each panel's 21
Kronrod points are evaluated in one call, and the two halves of a bisection
in one call of 42 points.  Every other operation is scalar float arithmetic
in QUADPACK's order, so the value and the error estimate are those of quad
to the bit.

The lists keep QUADPACK's 1-based indexing (entry 0 is unused), so each
line can be checked against the Fortran.  The package imports this module
where an integral is computed, as it does SciPy, so requests without one
do not load it.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

__all__ = ["qags"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# 21-point Kronrod abscissae (the 10-point Gauss ones are the odd entries)
# and weights, then the 10-point Gauss weights; the centre comes last
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_XGK_ARRAY = np.array(_XGK)

_MESSAGES = {
    1: "the maximum number of subintervals ({limit}) was reached",
    2: "roundoff error prevents the requested tolerance from being achieved; "
       "the error may be underestimated",
    3: "extremely bad integrand behaviour occurs at some points of the interval",
    4: "the algorithm does not converge: roundoff error is detected in the "
       "extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _gk21(f, panels):
    """dqk21 on each (a, b) of panels: (result, abserr, resabs, resasc) for each.

    The points of all panels go to f in one call: per panel the centre, then
    centre - hlgth * xgk and centre + hlgth * xgk for the ten abscissae.
    """
    pts = []
    for a, b in panels:
        centr = 0.5 * (a + b)
        absc = (0.5 * (b - a)) * _XGK_ARRAY
        pts += [np.array([centr]), centr - absc, centr + absc]
    vals = np.asarray(f(np.concatenate(pts)), dtype=float).tolist()
    out = []
    for p, (a, b) in enumerate(panels):
        fc = vals[21 * p]
        fv1 = vals[21 * p + 1:21 * p + 11]
        fv2 = vals[21 * p + 11:21 * p + 21]
        hlgth = 0.5 * (b - a)
        dhlgth = abs(hlgth)
        resg = 0.0
        resk = _WGK[10] * fc
        resabs = abs(resk)
        for j in (1, 3, 5, 7, 9):  # the Gauss abscissae
            fsum = fv1[j] + fv2[j]
            resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
        for j in (0, 2, 4, 6, 8):
            fsum = fv1[j] + fv2[j]
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = abs((resk - resg) * hlgth)
        if resasc != 0.0 and abserr != 0.0:
            # min(1, r**1.5), without the OverflowError Python raises for r**1.5 = inf
            r = 200.0 * abserr / resasc
            abserr = resasc * (1.0 if r >= 1.0 else r ** 1.5)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max((_EPMACH * 50.0) * resabs, abserr)
        out.append((result, abserr, resabs, resasc))
    return out


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord in descending error order; return (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = limit + 3 - last if last > limit // 2 + 2 else last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):  # insert errmin bottom-up
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg, Wynn's epsilon algorithm on epstab[1..n]: (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: convergence is assumed
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:  # irregular behaviour: omit part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr, result = error, res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):  # shift the table
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a: float, b: float, *, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
         limit: int = 50) -> tuple[float, float]:
    """Integral of f over [a, b] and its error estimate, as scipy.integrate.quad.

    f maps a 1-d float array of points to their values.  a < b must be finite.
    When the requested accuracy is not met (QUADPACK's ier > 0), a
    scipy.integrate.IntegrationWarning is issued, as quad does, and the
    best estimates are returned.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError("if epsabs <= 0, epsrel must exceed 5e-29 and 50 machine epsilons")
    if limit < 1:
        raise ValueError("limit must be at least 1")
    (result, abserr, defabs, resabs), = _gk21(f, ((a, b),))
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _finish(result, abserr, ier, limit)

    alist, blist = [0.0, a] + [0.0] * limit, [0.0, b] + [0.0] * limit
    rlist, elist = [0.0, result] + [0.0] * limit, [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    converged = False  # errsum met errbnd: the result is the sum of the panels

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = \
            _gk21(f, ((a1, b1), (a2, b2)))
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            converged = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # go on bisecting until the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # ones first, as long as one of them is left
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate: QUADPACK's labels 100 to 130
    to_sum = converged or abserr == _OFLOW  # the sum of the panels replaces result
    test_divergence = False
    if not to_sum:
        if ier + ierro == 0:
            test_divergence = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                to_sum = abserr / abs(result) > errsum / abs(area)
                test_divergence = not to_sum
            elif abserr > errsum:
                to_sum = True
            else:
                test_divergence = area != 0.0
    if test_divergence and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        if area == 0.0:  # result / area is inf or nan
            if result != 0.0 or errsum > 0.0:
                ier = 6
        elif 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
            ier = 6
    if to_sum:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return _finish(result, abserr, ier - 1 if ier > 2 else ier, limit)


def _finish(result, abserr, ier, limit):
    if ier:
        from scipy.integrate import IntegrationWarning
        warnings.warn(f"QUADPACK ier = {ier}: " + _MESSAGES[ier].format(limit=limit),
                      IntegrationWarning, stacklevel=3)
    return result, abserr
