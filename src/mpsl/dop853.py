"""The Dormand-Prince 8(5,3) tableau of DOP853 with its dense-output extension
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
Sec. II.10), digit for digit as scipy's ``dop853_coefficients`` holds it.

It is copied here so that integrating an IVP imports nothing of scipy.
``A[s]`` holds the s coefficients of stage s on the stages before it.
Stages 0-11 make a step, whose end state ``B`` weights (A[12] repeats it),
and stage 12 is the right-hand side there; ``E3`` and ``E5`` weight stages
0-12 for the error estimate.  Stages 13-15 are the extra stages of the dense
output, and ``D`` gives the four highest rows of the interpolant.

``kernels(pairs)`` compiles the whole DOP853 march of ``shooting._march``
for -u_p'' = lam_p*f(u_p) + h(x), p < pairs, to one generator of
straight-line Python on floats, once per process and pair count: the initial
step, the step loop with its error control and divergence rules, the dense
stages on the steps that ask for them, and the yield of each step.  A dense
step's record is one flat list: t_old, h, the seven interpolant rows
(highest power first, each over every component) and the start state, 2 +
16*pairs floats.  The state is (u_0, u_0', u_1, ...), and each stage writes
k = (u', -(lam*f(u) + h)) once, calling h once and f once per pair with no
wrapper between; h = 0 is folded in where there is no forcing.  Each stage
sum adds its products left to right, as Python does in every version.
Compiling the march for 1, 3 and 4 pairs took 3.3, 7.5 and 9.4 ms on a
quiet 2-vCPU x86 host, up to twice that under load.
"""

import functools
import math

from .errors import DivergenceError

A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
     0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
     1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259)
E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
      0.02265179219836082, 0.0)
E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
      1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
      -0.022355307863886294, 0.0)
D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


def _dot(row, i):
    """row times the stages k<j>_<i> of component i: the products with the
    nonzero coefficients, added left to right."""
    return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(row) if c)


def _float_of(var, fn, arg):
    """Lines setting var to _<fn>(arg) as a float, or to slow_<fn>(arg) where
    that raises or gives no float (a complex value)."""
    return ["try:", f"    {var} = float(_{fn}({arg}))",
            "except (ArithmeticError, ValueError, TypeError):", f"    {var} = slow_{fn}({arg})"]


@functools.cache
def kernels(pairs: int):
    """march(_f, slow_f, _h, slow_h, lams, y, rtol, atol, dense, budget, limit),
    the generator ``shooting._march`` returns for `pairs` (u, u') pairs: f is
    _f, or slow_f where _f raises or gives no float, h likewise (_h None for
    h = 0), and budget and limit are IVP_MAX_RHS_CALLS and BLOWUP_LIMIT."""
    comps, n = range(2 * pairs), 2 * pairs

    def names(fmt):
        return ", ".join(fmt.format(i) for i in comps)

    def rhs(s, x, Y):
        """Lines setting k<s> = (Y', -(lam*f(Y) + h(x))), one pair at a time."""
        lines = ["if forced:", f"    x = {x}", *("    " + line for line in _float_of("hx", "h", "x"))]
        for p in range(pairs):
            lines += [f"k{s}_{2 * p} = {Y[2 * p + 1]}", f"a = {Y[2 * p]}", *_float_of("v", "f", "a"),
                      f"k{s}_{2 * p + 1} = -(lam{p} * v + hx)"]
        return lines

    def stages(t, *ss):
        return [line for s in ss for line in rhs(
            s, f"{t} + {C[s]!r} * h", [f"y{i} + ({_dot(A[s], i)}) * h" for i in comps])]

    def rms(v):
        return f"sqrt(fsum([{', '.join(f'({v}{i} / sc{i}) * ({v}{i} / sc{i})' for i in comps)}]) / {n})"

    def squares(e):
        return " + ".join(f"{e}{i} * {e}{i}" for i in comps)

    start = [*rhs(0, "t", [f"y{i}" for i in comps]),
             f"if not all(map(isfinite, ({names('y{}')}, {names('k0_{}')}))):",
             "    raise DivergenceError(-1.0)", *(f"sc{i} = atol + abs(y{i}) * rtol" for i in comps),
             f"d0, d1 = {rms('y')}, {rms('k0_')}",
             "h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 2.0)",
             *rhs("i", "t + h0", [f"y{i} + h0 * k0_{i}" for i in comps]),
             *(f"g{i} = ki_{i} - k0_{i}" for i in comps), f"d2 = {rms('g')} / h0"]
    attempt = [*stages("t", *range(1, 12)), *(f"w{i} = y{i} + h * ({_dot(B, i)})" for i in comps),
               *rhs(12, "t + h", [f"w{i}" for i in comps]), "nfev += 12"]
    for i in comps:
        attempt += [f"sc = atol + max(abs(w{i}), abs(y{i})) * rtol",
                    f"e5_{i} = ({_dot(E5, i)}) / sc", f"e3_{i} = ({_dot(E3, i)}) / sc"]
    record = ["t_old", "h", *(f"h * ({_dot(row, i)})" for row in D[::-1] for i in comps),
              *(f"2.0 * dy{i} - h * (k12_{i} + k0_{i})" for i in comps), *(f"h * k0_{i} - dy{i}" for i in comps),
              *(f"dy{i}" for i in comps), *(f"y{i}" for i in comps)]
    dense = [*stages("t_old", 13, 14, 15), *(f"dy{i} = w{i} - y{i}" for i in comps),
             f"piece = [{', '.join(record)}]", "nfev += 3"]

    def body(lines, indent):
        return f"\n{' ' * indent}".join(lines)

    src = f"""def march(_f, slow_f, _h, slow_h, lams, y, rtol, atol, dense, budget, limit):
    {", ".join(f"lam{p}" for p in range(pairs))}, = lams
    forced, t, hx = _h is not None, -1.0, 0.0
    try:
        {names("y{}")}, = y
        {body(start, 8)}
        h_abs = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        h_abs, nfev = min(100.0 * h0, h_abs, 2.0), 2
        while t < 1.0:
            min_step = 10.0 * (nextafter(t, inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:
                if h_abs < min_step:
                    raise DivergenceError(t)
                t_new = min(t + h_abs, 1.0)
                h = t_new - t
                {body(attempt, 16)}
                err5, err3 = {squares("e5_")}, {squares("e3_")}
                err = h * err5 / sqrt((err5 + 0.01 * err3) * {n}) if err5 else 0.0
                if err < 1.0:
                    factor = min(10.0, 0.9 * err ** -0.125) if err else 10.0
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs, rejected = h * max(0.2, 0.9 * err ** -0.125), True
            t_old, t = t, t_new
            if {" or ".join(f"abs(w{i}) > limit" for i in comps[::2])} or nfev > budget:
                raise DivergenceError(t)
            piece = None
            if dense(t):
                {body(dense, 16)}
            y = [{names("w{}")}]
            {names("y{}")} = {names("w{}")}
            {names("k0_{}")} = {names("k12_{}")}
            yield t, y, piece
    except (ValueError, ArithmeticError):
        raise DivergenceError(t) from None"""
    namespace = {"DivergenceError": DivergenceError, "isfinite": math.isfinite, "sqrt": math.sqrt,
                 "fsum": math.fsum, "nextafter": math.nextafter, "inf": math.inf}
    exec(compile(src, f"<dop853 march, {pairs} pairs>", "exec"), namespace)  # noqa: S102
    return namespace["march"]
