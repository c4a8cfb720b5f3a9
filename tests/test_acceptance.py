"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every criterion gets exactly one test function; the pytest -v listing is
the pass/fail roll-up, and each test also prints its own ACCEPTANCE line
(visible under -s).  All matrix comparisons are exact equality over Q or
F5; nothing here tolerates a nonzero residual.
"""

import json

from conftest import flip, permutation, perturbed
from test_settruss import naive_enumerate

from trusslab.cli import main
from trusslab.coalgebra import ComonoidData
from trusslab.cocycle import (
    cocycle_of_truss,
    roundtrip_report,
    truss_of_cocycle,
)
from trusslab.fields import RATIONALS, prime_field
from trusslab.hopfmodules import (
    TrussHopfModule,
    adjunction_check,
    coinvariants,
    fundamental_iso,
    induction_functor,
)
from trusslab.hopftruss import HopfTruss, verify_hopf_truss
from trusslab.linmap import identity, kron
from trusslab.modules import (
    functor_G_H,
    functor_H_tr_pi,
    induction_truss_module,
    regular_pi_module,
    regular_truss_module,
    restrict_along,
    trivial_truss_module,
    verify_pi_module,
    verify_pi_module_morphism,
    verify_truss_module,
)
from trusslab.settruss import (
    cyclic_group,
    enumerate_skew_trusses,
    left_projection_truss,
    linearize,
    right_projection_truss,
    symmetric_group,
    trivial_truss,
    truss_of_grouplikes,
)

F5 = prime_field(5)

GROUPS = (("Z2", cyclic_group(2)), ("Z3", cyclic_group(3)), ("S3", symmetric_group(3)))
SHAPES = (("trivial", trivial_truss),
          ("left-projection", left_projection_truss),
          ("right-projection", right_projection_truss))
FIELDS = (("Q", RATIONALS), ("F5", F5))


def fixture_trusses():
    """The 18 linearized fixtures: 3 shapes x {Z2, Z3, S3} x {Q, F5}.

    The Q/Z2/trivial entry is the rational Hopf brace on the group
    algebra of the two-element group.
    """
    return [
        (f"{sname}-{gname}-{fname}", linearize(make(group), field))
        for gname, group in GROUPS
        for sname, make in SHAPES
        for fname, field in FIELDS
    ]


def moved_cocycles():
    """Cocycle systems whose source is a nontrivial relabeling, so the
    comparison map is a genuine permutation rather than the identity."""
    return [
        ("trivial-Z2-Q-moved",
         cocycle_of_truss(linearize(trivial_truss(cyclic_group(2)), RATIONALS)).moved(
             {"source": permutation(RATIONALS, (1, 0))})),
        ("trivial-Z3-Q-moved",
         cocycle_of_truss(linearize(trivial_truss(cyclic_group(3)), RATIONALS)).moved(
             {"source": permutation(RATIONALS, (1, 2, 0))})),
        ("right-projection-Z3-F5-moved",
         cocycle_of_truss(linearize(right_projection_truss(cyclic_group(3)), F5)).moved(
             {"source": permutation(F5, (2, 0, 1))})),
    ]


def fixture_cocycles():
    return ([(name, cocycle_of_truss(h)) for name, h in fixture_trusses()]
            + moved_cocycles())


def regular_truss_hopf_module(h: HopfTruss) -> TrussHopfModule:
    return TrussHopfModule(h, h.mu1, h.mu2, h.comonoid.delta)


def with_map(h: HopfTruss, name: str, m) -> HopfTruss:
    parts = {
        "delta": h.comonoid.delta, "epsilon": h.comonoid.epsilon, "eta": h.eta,
        "mu1": h.mu1, "mu2": h.mu2, "antipode": h.antipode, "cocycle": h.cocycle,
    }
    parts[name] = m
    return HopfTruss(ComonoidData(h.dim, parts["delta"], parts["epsilon"]),
                     parts["eta"], parts["mu1"], parts["mu2"],
                     parts["antipode"], parts["cocycle"])


# Scripted single-entry perturbations, applied to the dim-3 trivial
# truss over Q: coordinates stay inside each map's shape (delta 9x3,
# epsilon 1x3, eta 3x1, products 3x9, antipode and cocycle 3x3).
PERTURBATIONS = (
    ("delta", 0, 0), ("delta", 1, 2), ("delta", 4, 1), ("delta", 8, 2),
    ("epsilon", 0, 0), ("epsilon", 0, 2),
    ("eta", 0, 0), ("eta", 2, 0),
    ("mu1", 0, 0), ("mu1", 1, 4), ("mu1", 2, 8), ("mu1", 0, 5),
    ("mu2", 0, 1), ("mu2", 2, 3), ("mu2", 1, 7), ("mu2", 0, 8),
    ("antipode", 0, 0), ("antipode", 1, 1), ("antipode", 2, 0),
    ("cocycle", 0, 0), ("cocycle", 1, 2), ("cocycle", 2, 1),
)


def test_criterion_1_axiom_suites_and_mutation_coverage():
    for name, h in fixture_trusses():
        rep = verify_hopf_truss(h)
        assert rep.ok, f"{name}: {rep}"
        assert all(c.residual is None for _, c in rep.named_checks()), name

    base = linearize(trivial_truss(cyclic_group(3)), RATIONALS)
    caught = 0
    for name, i, j in PERTURBATIONS:
        parts = {
            "delta": base.comonoid.delta, "epsilon": base.comonoid.epsilon,
            "eta": base.eta, "mu1": base.mu1, "mu2": base.mu2,
            "antipode": base.antipode, "cocycle": base.cocycle,
        }
        mutant = with_map(base, name, perturbed(parts[name], i, j))
        if not verify_hopf_truss(mutant).ok:
            caught += 1
    assert caught == len(PERTURBATIONS) >= 20
    print(f"\nACCEPTANCE 1: PASS "
          f"({len(fixture_trusses())} fixtures clean, "
          f"{caught}/{len(PERTURBATIONS)} mutations caught)")


def test_criterion_2_truss_cocycle_round_trip():
    for name, h in fixture_trusses():
        assert truss_of_cocycle(cocycle_of_truss(h)) == h, name
    for name, c in fixture_cocycles():
        rep = roundtrip_report(c)
        assert rep.ok, f"{name}: {rep}"
    print(f"\nACCEPTANCE 2: PASS ({len(fixture_trusses())} exact round trips, "
          f"{len(fixture_cocycles())} certified comparison isomorphisms)")


def test_criterion_3_grouplikes_undo_linearization():
    total = 0
    for n in (2, 3):
        for t in enumerate_skew_trusses(cyclic_group(n)):
            for _, field in FIELDS:
                assert truss_of_grouplikes(linearize(t, field)) == t
                total += 1
    print(f"\nACCEPTANCE 3: PASS ({total} enumerated trusses recovered exactly)")


def test_criterion_4_enumeration_matches_brute_force_oracle():
    counts = {}
    for n in (2, 3):
        g = cyclic_group(n)
        fast = enumerate_skew_trusses(g)
        slow = naive_enumerate(g)
        assert len(fast) == len(slow)
        assert fast == slow
        counts[n] = len(fast)
    print(f"\nACCEPTANCE 4: PASS (Z2: {counts[2]} trusses, Z3: {counts[3]}, "
          "both routes identical)")


def test_criterion_5_module_functors_compose_to_the_identity():
    composites = 0
    for name, c in fixture_cocycles():
        comparison = {"source": c.cocycle, "target": identity(c.field, c.hopf.dim)}
        t = truss_of_cocycle(c)
        for build in (regular_truss_module, trivial_truss_module,
                      lambda h: induction_truss_module(h, 2)):
            m = build(t)
            down = restrict_along(comparison, c, functor_G_H(m))
            assert functor_H_tr_pi(down) == m, name
            composites += 1
        pi_mod = regular_pi_module(c)
        back = restrict_along(comparison, c,
                              functor_G_H(functor_H_tr_pi(pi_mod)))
        assert back.compare == identity(c.field, pi_mod.mdim), name
        assert verify_pi_module(back).ok, name
        pair = verify_pi_module_morphism(
            identity(c.field, pi_mod.mdim), pi_mod.compare, pi_mod, back)
        assert pair.ok, f"{name}: {pair}"
    print(f"\nACCEPTANCE 5: PASS ({composites} composites equal to the identity, "
          f"{len(fixture_cocycles())} reverse composites isomorphic)")


def test_criterion_6_fundamental_isomorphism():
    checked = 0
    for name, h in fixture_trusses():
        objects = [("regular", regular_truss_hopf_module(h))]
        for xdim in (1, 2, 3):
            objects.append((f"induction-{xdim}", induction_functor(h, xdim)))
        for label, m in objects:
            theta, theta_inv, rep = fundamental_iso(m)
            assert rep.ok, f"{name}/{label}: {rep}"
            checked += 1
        for xdim in (1, 2, 3):
            w = coinvariants(induction_functor(h, xdim).hopf_module())
            assert w.codim == xdim, name
            assert w.inclusion == kron(h.eta, identity(h.field, xdim)), name
    print(f"\nACCEPTANCE 6: PASS ({checked} fundamental isomorphisms exact, "
          "induction coinvariants are the plain space on the nose)")


def test_criterion_7_adjunction_triangles():
    pairs = 0
    for name, h in fixture_trusses():
        for xdim, m in ((1, regular_truss_hopf_module(h)),
                        (2, induction_functor(h, 2)),
                        (3, induction_functor(h, 3))):
            rep = adjunction_check(h, xdim, m)
            assert rep.ok, f"{name}/xdim={xdim}: {rep}"
            pairs += 1
    print(f"\nACCEPTANCE 7: PASS ({pairs} fixture pairs, both triangles exact)")


def test_criterion_8_derived_identity_regression():
    for name, h in fixture_trusses():
        n, field = h.dim, h.field
        lam, braid = h.antipode, flip(n, n, field)
        rep = verify_hopf_truss(h)
        for check in ("cocycle.derived", "action.unit", "action.product",
                      "action.assoc"):
            assert rep.named(check).passed, f"{name}: {check}"
        # antipode anti(co)multiplicativity, stated directly
        assert lam @ h.mu1 == h.mu1 @ braid @ kron(lam, lam), name
        assert h.comonoid.delta @ lam == braid @ kron(lam, lam) @ h.comonoid.delta, name

        mod_rep = verify_truss_module(regular_truss_module(h))
        for check in ("compat.distributivity", "compat.distributivity.alt",
                      "compat.derived"):
            assert mod_rep.named(check).passed, f"{name}: {check}"

        pi_rep = verify_pi_module(regular_pi_module(cocycle_of_truss(h)))
        for check in ("derived.base", "derived.mixed"):
            assert pi_rep.named(check).passed, f"{name}: {check}"
    print(f"\nACCEPTANCE 8: PASS (derived identities zero-residual on "
          f"{len(fixture_trusses())} fixtures)")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    from trusslab import algfile

    brace = tmp_path / "brace.json"
    algfile.save(brace, linearize(trivial_truss(cyclic_group(2)), RATIONALS))
    settruss = tmp_path / "z3.json"
    algfile.save(settruss, trivial_truss(cyclic_group(3)))

    outputs = []
    for argv in (
        ["verify", str(brace), "--format", "json"],
        ["enumerate", "--group", "Z2"],
        ["enumerate", "--group", "Z3"],
        ["pipeline", str(settruss), "--steps", "linearize,E,Q,roundtrip",
         "--format", "json"],
    ):
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code == 0
        assert first == second
        json.loads(first)  # well-formed canonical JSON
        outputs.append(first)
    assert len(outputs) == 4
    print("\nACCEPTANCE 9: PASS (4 commands byte-identical across reruns)")
