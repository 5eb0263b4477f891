"""Gabber's construction at finite truncation level.

One step adjoins p-th roots of a p-generating tuple: R' = R[X]/(X_i^p -
x_i) with phi(r X_i) = r^p x_i and iota the inclusion.  The infinite limit
ring is represented only through the tower of these stages; kernel
identities and the completion identification are checked on the finite
quotients.
"""

from .errors import AlgebraError, NotPGenerating, NotSurjective
from .frobenius import CoordinateSolver, bracket_power, is_p_generating
from .groebner import (
    QuotientRing,
    adjoin_variables,
    ambient_of,
    are_inverse,
    elimination_kernel,
    modulus_gens,
    reduce_in,
    rename_poly,
    ring_map_is_surjective,
)
from .polyring import RingMap


class GabberStage:
    """One p-th-root extension R_i of R_{i-1} along the current tuple."""

    def __init__(self, base, ring, phi, iota, pbasis_images):
        self.base = base
        self.ring = ring
        self.phi = phi
        self.iota = iota
        self.pbasis_images = pbasis_images

    def check_frobenius_identities(self, samples=()):
        """phi o iota = F on the base and iota o phi = F upstairs."""
        R0 = self.phi.target
        amb0 = ambient_of(R0)
        p = amb0.p
        for f in list(amb0.gens()) + list(samples):
            lhs = self.phi.apply(self.iota.apply(f))
            if not reduce_in(R0, lhs - f ** p).is_zero():
                return False
        R1 = self.ring
        amb1 = ambient_of(R1)
        for g in amb1.gens():
            lhs = self.iota.apply(self.phi.apply(g))
            if not R1.reduce(lhs - g ** p).is_zero():
                return False
        return True


def gabber_step(R, xs, check_p_generating=True, level=1, root_stub="X"):
    """R' = R[X_1..X_n]/(X_i^p - x_i) with phi, iota and the new p-basis."""
    amb = ambient_of(R)
    p = amb.p
    xs = list(xs)
    if check_p_generating and not is_p_generating(R, xs):
        raise NotPGenerating("the tuple does not p-generate the ring")
    names = ["%s%d_%d" % (root_stub, j + 1, level) for j in range(len(xs))]
    big, index = adjoin_variables(R, names)
    n0 = amb.nvars
    mod = [rename_poly(g, big, index) for g in modulus_gens(R)]
    roots = [big.var(n0 + j) for j in range(len(xs))]
    for j, x in enumerate(xs):
        mod.append(roots[j] ** p - rename_poly(x, big, index))
    R1 = QuotientRing(big, mod)
    iota = RingMap(R, R1, [R1.reduce(big.var(i)) for i in range(n0)], check=True)
    phi_images = [reduce_in(R, amb.var(i) ** p) for i in range(n0)]
    phi_images += [reduce_in(R, x) for x in xs]
    phi = RingMap(R1, R, phi_images, check=True)
    stage = GabberStage(
        base=R,
        ring=R1,
        phi=phi,
        iota=iota,
        pbasis_images=[R1.reduce(r) for r in roots],
    )
    if not stage.check_frobenius_identities():
        raise AlgebraError("Frobenius identities failed on a Gabber step")
    return stage


class GabberTruncation:
    """Level-e stage of the tower over R."""

    def __init__(self, base, xs, stages):
        self.xs = list(xs)
        self.stages = stages
        self.ring = stages[-1].ring if stages else base
        self.level = len(stages)

    @property
    def pbasis_images(self):
        if not self.stages:
            return list(self.xs)
        return self.stages[-1].pbasis_images


def gabber_truncation(R, xs, e, root_stub="X"):
    """Iterate gabber_step e times."""
    xs = list(xs)
    if not is_p_generating(R, xs):
        raise NotPGenerating("the tuple does not p-generate the ring")
    stages = []
    current = R
    tuple_now = xs
    for k in range(1, e + 1):
        stage = gabber_step(current, tuple_now, check_p_generating=False, level=k, root_stub=root_stub)
        stages.append(stage)
        current = stage.ring
        tuple_now = stage.pbasis_images
    return GabberTruncation(R, xs, stages)


def verify_kernel_bracket(S, pi, e):
    """ker(pi_e) = (ker pi)^{[p^e]} through the lifted tower stages.

    S must be a polynomial ring whose variables are the certified p-basis;
    pi: S ->> R surjective.  The stage maps send the basis to the stage
    roots, as in the universal factorization through the tower.
    """
    if isinstance(S, QuotientRing):
        raise AlgebraError("the regular cover must be presented as a polynomial ring")
    if not ring_map_is_surjective(pi):
        raise NotSurjective("pi is not surjective onto the target")
    R = pi.target
    xs = list(pi.images)
    J = elimination_kernel(pi)
    if e == 0:
        return True
    tower = gabber_truncation(R, xs, e)
    Re = tower.ring
    roots = tower.pbasis_images
    pi_e = RingMap(S, Re, roots, check=False)
    ker_e = elimination_kernel(pi_e)
    expected = bracket_power(J, e)
    return ker_e.equals(expected)


def extend_pgens_check(R, xs, ys, e):
    """Cor: G(R; x, y) = G(R; x)[[t]] at truncation level e.

    Certifies an explicit ring isomorphism between the level-e truncation
    for the extended tuple and the level-e truncation for xs with adjoined
    variables killed by (Y_i - g_i)^{p^e}, g_i a lift of y_i."""
    xs, ys = list(xs), list(ys)
    if not is_p_generating(R, xs):
        raise NotPGenerating("the base tuple does not p-generate")
    if not ys:
        return True
    amb = ambient_of(R)
    p = amb.p
    q = p ** e
    T1 = gabber_truncation(R, xs + ys, e, root_stub="Z")
    TX = gabber_truncation(R, xs, e, root_stub="X")
    ambx = ambient_of(TX.ring)
    n0 = amb.nvars
    nx = len(xs)
    # lifts g_i of y_i into the stage-e ring via p^e-th root coordinates
    coordinates = CoordinateSolver(R, xs, e)
    lifts = []
    for y in ys:
        coords = coordinates.solve(y)
        if coords is None:
            raise NotPGenerating("cannot expand the extra element in the tuple")
        acc = ambx.zero()
        for a, c in coords.items():
            term = rename_poly(c, ambx, list(range(n0)))
            for j, k in enumerate(a):
                if k:
                    # stage-e root of xs_j sits at a deterministic position
                    root = ambx.var(n0 + (e - 1) * nx + j)
                    term = term * (root ** k)
            acc = acc + term
        lifts.append(acc)
    # T2: adjoin one variable per y with (Y - g)^{p^e} = 0
    names = ["t%d" % (i + 1) for i in range(len(ys))]
    big, idx = adjoin_variables(TX.ring, names)
    mod = [rename_poly(g, big, idx) for g in modulus_gens(TX.ring)]
    tvars = [big.var(ambx.nvars + i) for i in range(len(ys))]
    glifts = [rename_poly(g, big, idx) for g in lifts]
    for t, g in zip(tvars, glifts):
        mod.append((t - g) ** q)
    T2 = QuotientRing(big, mod)
    # psi: T1 -> T2.  T1's ambient lists, per level, the roots of the whole
    # tuple (xs then ys); a level-k root of y_i maps to t_i^{p^{e-k}}.
    amb1 = ambient_of(T1.ring)
    ntuple = nx + len(ys)
    images = [T2.reduce(big.var(i)) for i in range(n0)]
    for k in range(1, e + 1):
        for j in range(nx):
            images.append(T2.reduce(big.var(n0 + (k - 1) * nx + j)))
        for i in range(len(ys)):
            images.append(T2.reduce(tvars[i] ** (p ** (e - k))))
    psi = RingMap(T1.ring, T2, images, check=True)
    # inverse: base vars and xs-roots map identically; t_i to the top root
    inv_images = [T1.ring.reduce(amb1.var(i)) for i in range(n0)]
    for k in range(1, e + 1):
        base_pos = n0 + (k - 1) * ntuple
        for j in range(nx):
            inv_images.append(T1.ring.reduce(amb1.var(base_pos + j)))
    for i in range(len(ys)):
        top_pos = n0 + (e - 1) * ntuple + nx + i
        inv_images.append(T1.ring.reduce(amb1.var(top_pos)))
    tau = RingMap(T2, T1.ring, inv_images, check=True)
    return are_inverse(psi, tau)
