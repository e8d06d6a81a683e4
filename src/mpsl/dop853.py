"""The Dormand-Prince 8(5,3) tableau of DOP853 with its dense-output extension
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
Sec. II.10), digit for digit as scipy's ``dop853_coefficients`` holds it.

It is copied here so that integrating an IVP imports nothing of scipy.
``A[s]`` holds the s coefficients of stage s on the stages before it.
Stages 0-11 make a step, whose end state ``B`` weights (A[12] repeats it),
and stage 12 is the right-hand side there; ``E3`` and ``E5`` weight stages
0-12 for the error estimate.  Stages 13-15 are the extra stages of the dense
output, and ``D`` gives the four highest rows of the interpolant.

``kernels(pairs)`` compiles one DOP853 step for -u_p'' = lam_p*f(u_p) + h(x),
p < pairs, to straight-line Python on floats, once per process and pair
count.  The state is (u_0, u_0', u_1, ...), and k = (u', -(lam*f(u) + h)) is
written once, with h called once per stage.  ``attempt`` runs stages 1-12 and
returns the end state, stage 12, the two squared error sums and all stages;
``dense`` adds stages 13-15 and returns the seven interpolant rows, highest
power first.  Each stage sum adds its products left to right, as Python does
in every version.  Compiling the kernels for 1, 3 and 4 pairs took 2.3, 5.8
and 7.4 ms on a quiet 2-vCPU x86 host, up to twice that under load.
"""

import functools

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


@functools.cache
def kernels(pairs: int):
    """make(hf, f, lams, atol, rtol) -> (rhs, attempt, dense), the kernels
    for `pairs` (u, u') pairs with h, f, the lams and the tolerances bound."""
    comps = range(2 * pairs)

    def names(fmt):
        return ", ".join(fmt.format(i) for i in comps)

    def rhs(s, x, Y):
        """Lines setting k<s> = (Y', -(lam*f(Y) + h(x))), one pair at a time."""
        yield f"hx = hf({x})"
        for p in range(pairs):
            yield f"k{s}_{2 * p} = {Y[2 * p + 1]}"
            yield f"k{s}_{2 * p + 1} = -(lam{p} * f({Y[2 * p]}) + hx)"

    def stages(*ss):
        return [line for s in ss for line in rhs(
            s, f"t + {C[s]!r} * h", [f"y{i} + ({_dot(A[s], i)}) * h" for i in comps])]

    def squares(e):
        return " + ".join(f"{e}{i} * {e}{i}" for i in comps)

    k = ", ".join(names(f"k{s}_{{}}") for s in range(13))
    attempt = [*stages(*range(1, 12)), *(f"w{i} = y{i} + h * ({_dot(B, i)})" for i in comps),
               *rhs(12, "t + h", [f"w{i}" for i in comps])]
    for i in comps:
        attempt += [f"sc = atol + max(abs(w{i}), abs(y{i})) * rtol",
                    f"e5_{i} = ({_dot(E5, i)}) / sc", f"e3_{i} = ({_dot(E3, i)}) / sc"]
    rows = [[f"h * ({_dot(row, i)})" for i in comps] for row in D[::-1]] + [
        [f"2.0 * d{i} - h * (k12_{i} + k0_{i})" for i in comps], [f"h * k0_{i} - d{i}" for i in comps],
        [f"d{i}" for i in comps]]
    dense = [*stages(13, 14, 15), *(f"d{i} = w{i} - y{i}" for i in comps)]
    body = "\n        ".join
    src = f"""def make(hf, f, lams, atol, rtol):
    {", ".join(f"lam{p}" for p in range(pairs))}, = lams
    def rhs(x, y):
        {names("y{}")}, = y
        {body(rhs(0, "x", [f"y{i}" for i in comps]))}
        return [{names("k0_{}")}]
    def attempt(t, h, y, k):
        {names("y{}")}, = y
        {names("k0_{}")}, = k
        {body(attempt)}
        return [{names("w{}")}], [{names("k12_{}")}], {squares("e5_")}, {squares("e3_")}, ({k},)
    def dense(t, h, y, w, K):
        {names("y{}")}, = y
        {names("w{}")}, = w
        {k}, = K
        {body(dense)}
        return [{", ".join(f"[{', '.join(row)}]" for row in rows)}]
    return rhs, attempt, dense"""
    namespace = {}
    exec(compile(src, f"<dop853 kernels, {pairs} pairs>", "exec"), namespace)  # noqa: S102
    return namespace["make"]
