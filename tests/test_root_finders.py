"""The bracketed Newton root finders against the scan-and-bisect finders
they replaced, kept here as a reference; the first-order seed of the
automatic zero finder against its decade search; Newton iterates on the
resolvent against direct solves; and the safeguard of the Newton routine
itself."""

import importlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from darkres import (
    DensityMatrix,
    MediumParams,
    NumericError,
    SystemParams,
    auto_zero_bracket,
    chi_at,
    find_absorption_zero,
    find_absorption_zero_auto,
    find_gain_threshold,
    steady_state,
)
from darkres import observables, parse_config, run_sweep, sweep
from darkres.model import WEAK_PROBE_FACTOR
from darkres.observables import (
    SIGN_FLOOR,
    ZERO_BRACKET_EXPANSIONS,
    ZERO_IM_TOL,
    _bracketed_newton,
    _first_order_zero,
)

from test_steady_state import conserved_rho11_draws

steady_state_module = importlib.import_module("darkres.steady_state")

MERCURY = dict(gamma41=1.0, gamma42=0.79, gamma23=0.14)
UNDRIVEN = SystemParams(g41=0.0, g42=4.0, g_p=1e-4, gamma13=0.01, **MERCURY)
SPIKE = SystemParams(g41=0.04, g42=4.0, g_p=1e-4, gamma13=0.0, **MERCURY)
PUMPED = replace(SPIKE, lambda_pump=4e-5)
MEDIUM = MediumParams()
SCAN_POINTS = 200


# --- reference: 201-point sign scan, then bisection of the first change ---

def _first_sign_change(f, xs):
    """The first adjacent pair of ``xs`` over which ``f`` changes sign
    strictly, evaluating left to right and stopping there; NaN, or a value
    within ``SIGN_FLOOR`` of zero, carries no sign."""
    prev = 0.0
    for k, x in enumerate(xs):
        value = f(x)
        sign = 0.0 if abs(value) <= SIGN_FLOOR else np.sign(value)
        if prev * sign < 0:
            return float(xs[k - 1]), float(x)
        prev = sign
    return None


def _scan_and_bisect(f, xs, rel_tol):
    pair = _first_sign_change(f, xs)
    if pair is None:
        raise NumericError("no sign change", code="NO_SIGN_CHANGE")
    a, b = pair
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= rel_tol * max(abs(a), abs(b)):
            break
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def reference_zero(p, m, bracket):
    xs = np.linspace(bracket[0], bracket[1], SCAN_POINTS + 1)
    return _scan_and_bisect(lambda d: chi_at(p, m, d).imag, xs, 1e-6)


def reference_zero_auto(p, m):
    lo, hi = auto_zero_bracket(p)
    for _ in range(ZERO_BRACKET_EXPANSIONS + 1):
        try:
            return reference_zero(p, m, (lo, hi))
        except NumericError:
            hi *= 10.0
    raise NumericError("no sign change", code="NO_SIGN_CHANGE")


def reference_threshold(p, m, lambda_range):
    lo, hi = lambda_range
    xs = np.geomspace(lo, hi, SCAN_POINTS + 1) if lo > 0 else np.linspace(lo, hi, SCAN_POINTS + 1)
    return _scan_and_bisect(
        lambda lam: chi_at(replace(p, lambda_pump=lam), m, 0.0).imag, xs, 1e-3
    )


def outcome(finder, *args):
    """The root, or the error code when the finder raises."""
    try:
        return finder(*args)
    except NumericError as exc:
        return exc.code


def assert_same(new, ref, rel):
    if isinstance(ref, str):
        assert new == ref
    else:
        assert not isinstance(new, str), new
        assert new == pytest.approx(ref, rel=rel)


# --- the finders against the reference ---

@pytest.mark.parametrize("bracket", [(1e-5, 1e-3), (-1e-3, -1e-5)])
def test_zero_matches_reference_at_pumped_config(bracket):
    assert_same(
        find_absorption_zero(PUMPED, MEDIUM, bracket),
        reference_zero(PUMPED, MEDIUM, bracket),
        1e-6,
    )


def test_zero_matches_reference_on_acceptance_pump_scan_grid():
    """Every point of the acceptance suite's pump scan: the same hits and
    misses, and the same roots within 1e-6."""
    hits = 0
    for g42 in (4.0, 7.0, 10.0):
        base = replace(SPIKE, g42=g42)
        star = find_gain_threshold(base, MEDIUM, (1e-8, 1e-2))
        for lam in np.geomspace(star * 1.005, 1e-3, 25):
            p = replace(base, lambda_pump=lam)
            ref = outcome(reference_zero_auto, p, MEDIUM)
            assert_same(outcome(find_absorption_zero_auto, p, MEDIUM), ref, 1e-6)
            hits += not isinstance(ref, str)
    assert hits == 75


@pytest.mark.parametrize("g42", [4.0, 10.0, 15.0])
def test_threshold_matches_reference(g42):
    p = replace(SPIKE, g42=g42)
    star = find_gain_threshold(p, MEDIUM, (1e-8, 1e-2))
    assert star == pytest.approx(reference_threshold(p, MEDIUM, (1e-8, 1e-2)), rel=1e-3)


def test_threshold_from_zero_pump_matches_reference():
    star = find_gain_threshold(SPIKE, MEDIUM, (0.0, 1e-4))
    assert star == pytest.approx(reference_threshold(SPIKE, MEDIUM, (0.0, 1e-4)), rel=1e-3)


def test_same_no_sign_change_cases_as_reference():
    cases = [
        (find_absorption_zero, reference_zero, (SPIKE, MEDIUM, (1e-5, 1e-3))),
        (find_gain_threshold, reference_threshold, (UNDRIVEN, MEDIUM, (1e-7, 1e-2))),
    ]
    # sub-threshold pump rates: no crossing out to the widest auto bracket
    for lam in np.geomspace(1e-7, 1e-5, 7):
        cases.append(
            (find_absorption_zero_auto, reference_zero_auto,
             (replace(SPIKE, lambda_pump=lam), MEDIUM))
        )
    for new, ref, args in cases:
        assert outcome(ref, *args) == "NO_SIGN_CHANGE"
        assert outcome(new, *args) == "NO_SIGN_CHANGE"


def test_bracket_with_two_crossings_has_no_sign_change():
    """Both bracket ends sit in the absorbing wings, so the ends share a
    sign although the bracket holds the crossings at +-delta0; the scan
    used to find the first of them."""
    assert reference_zero(PUMPED, MEDIUM, (-1e-3, 1e-3)) == pytest.approx(-2.6241e-4, rel=1e-4)
    with pytest.raises(NumericError) as exc:
        find_absorption_zero(PUMPED, MEDIUM, (-1e-3, 1e-3))
    assert exc.value.code == "NO_SIGN_CHANGE"


def test_end_below_sign_floor_is_no_sign():
    # Im chi at the zero crossing itself is below the sign floor
    z = find_absorption_zero(PUMPED, MEDIUM, (1e-5, 1e-3))
    assert abs(chi_at(PUMPED, MEDIUM, z).imag) <= SIGN_FLOOR
    with pytest.raises(NumericError) as exc:
        find_absorption_zero(PUMPED, MEDIUM, (z, 1e-3))
    assert exc.value.code == "NO_SIGN_CHANGE"


def test_unverified_root_is_no_convergence(monkeypatch):
    """A root whose |chi''| fails the verification bound is refused, in a
    user bracket and in the automatic search, whose decade loop passes the
    error on."""
    monkeypatch.setattr(observables, "ZERO_IM_TOL", -1.0)
    for finder, args in (
        (find_absorption_zero, ((2e-4, 3e-4),)), (find_absorption_zero_auto, ()),
    ):
        with pytest.raises(NumericError, match="did not verify below tolerance") as exc:
            finder(PUMPED, MEDIUM, *args)
        assert exc.value.code == "NO_CONVERGENCE"


def test_miss_costs_one_solve_and_one_resolvent(count_calls):
    """The lower end comes from the resolvent built there, so a bracket
    whose ends share a sign costs the upper end's solve and that build."""
    solves = count_calls("steady_state", observables)
    builds = count_calls("_Resolvent", observables)
    with pytest.raises(NumericError):
        find_absorption_zero(SPIKE, MEDIUM, (1e-5, 1e-3))
    assert [args[0].delta_p for args in solves] == [1e-3]
    assert [args[0].delta_p for args in builds] == [1e-5]


# --- the first-order seed against the decade search alone ---

def decade_zero(p, m, side=+1):
    """find_absorption_zero_auto without its seed: the automatic bracket
    widened tenfold up to ZERO_BRACKET_EXPANSIONS times."""
    lo, hi = auto_zero_bracket(p)
    for _ in range(ZERO_BRACKET_EXPANSIONS + 1):
        try:
            return find_absorption_zero(p, m, (lo, hi) if side >= 0 else (-hi, -lo))
        except NumericError as exc:
            if exc.code != "NO_SIGN_CHANGE":
                raise
            hi *= 10.0
    raise NumericError("no sign change", code="NO_SIGN_CHANGE")


def seeded_draw(rng, pumped):
    """The bench's random states: the paper's pumped regime, or a general
    detuned state with gamma13 > 0."""
    if pumped:
        return SystemParams(
            g41=rng.uniform(0.01, 0.1), g42=rng.uniform(2.0, 10.0), g_p=1e-4,
            delta_p=rng.uniform(-1e-3, 1e-3), gamma13=0.0,
            lambda_pump=10 ** rng.uniform(-6, -3), **MERCURY,
        )
    return SystemParams(
        g41=rng.uniform(0, 2), g42=rng.uniform(0.1, 5), g_p=rng.uniform(1e-5, 0.1),
        delta41=rng.uniform(-5, 5), delta42=rng.uniform(-5, 5), delta_p=rng.uniform(-5, 5),
        gamma41=rng.uniform(0.1, 2), gamma42=rng.uniform(0.1, 2), gamma23=rng.uniform(0.01, 1),
        gamma13=rng.uniform(1e-3, 0.1), lambda_pump=rng.uniform(0, 0.05),
    )


@pytest.mark.parametrize("pumped", [True, False])
def test_seed_agrees_with_decade_search_on_seeded_draws(pumped):
    """The same root within 1e-10 where both find one, and the same error
    code where both fail; a root only the seed finds is a verified
    crossing, and a root the seed loses is a failure."""
    rng = np.random.default_rng(14)
    both = 0
    for _ in range(25):
        p = seeded_draw(rng, pumped)
        for side in (+1, -1):
            new = outcome(find_absorption_zero_auto, p, MEDIUM, side)
            ref = outcome(decade_zero, p, MEDIUM, side)
            if isinstance(new, str):
                assert new == ref, (p, side)
            elif isinstance(ref, str):
                assert abs(chi_at(p, MEDIUM, new).imag) <= ZERO_IM_TOL
            else:
                assert new == pytest.approx(ref, rel=1e-10), (p, side)
                both += 1
    assert both > 0


def test_seed_takes_the_crossing_nearest_zero():
    """A general detuned state with three crossings in (0, 28): the decade
    brackets miss (0, 0.28) and (0, 2.8), and Newton in (0, 28.1) lands on
    the far one; the seed returns the first, as the scan does."""
    p = SystemParams(
        g41=1.9265408689364618, g42=2.351880559099007, g_p=9.33889078937378e-05,
        delta41=0.5963326925886907, delta42=-4.816766033153228,
        delta_p=-0.9297864659083448, gamma41=1.9795407773433564,
        gamma42=0.4514139891654637, gamma23=0.025596106107647405,
        gamma13=0.03835592006800606, lambda_pump=0.028073324546886443,
    )
    root = find_absorption_zero_auto(p, MEDIUM)
    assert root == pytest.approx(reference_zero_auto(p, MEDIUM), rel=1e-6)
    assert root == pytest.approx(4.7353, rel=1e-4)
    assert decade_zero(p, MEDIUM) == pytest.approx(26.141, rel=1e-4)


def test_seed_finds_a_crossing_of_a_pair_the_decades_straddle():
    """A general detuned state with crossings at -1.185 and -1.049: every
    decade bracket holds both, so its ends share a sign; the seed returns
    the one nearer 0."""
    p = SystemParams(
        g41=0.5741665509539964, g42=4.314169050705674, g_p=0.007645377894685253,
        delta41=-1.1549994475045198, delta42=-0.04404204280049662,
        delta_p=-3.503595558665824, gamma41=1.9708653973621761,
        gamma42=0.2603530299008842, gamma23=0.8397868060905703,
        gamma13=0.001551674069253833, lambda_pump=0.04766209096061103,
    )
    assert outcome(decade_zero, p, MEDIUM, -1) == "NO_SIGN_CHANGE"
    root = find_absorption_zero_auto(p, MEDIUM, -1)
    assert root == pytest.approx(-1.0488, rel=1e-4)
    assert abs(chi_at(p, MEDIUM, root).imag) <= ZERO_IM_TOL


def probe_free(p):
    """The parameters of the state that seeds the zero search at ``p``."""
    return replace(p, g_p=0.0, delta_p=0.0)


def first_order_zero(p, side):
    """The first-order crossing at ``p`` from its directly solved
    probe-free state."""
    return _first_order_zero(steady_state(probe_free(p)), side)


def test_first_order_gap_shrinks_as_probe_squared():
    gaps = []
    for g_p in (5e-5, 1e-4, 2e-4, 4e-4):
        p = replace(PUMPED, g_p=g_p)
        exact = find_absorption_zero(p, MEDIUM, (1e-5, 1e-3))
        gaps.append(abs(first_order_zero(p, +1) - exact) / exact)
    assert gaps[1] < 1e-5
    for smaller, larger in zip(gaps, gaps[1:]):
        assert larger / smaller == pytest.approx(4.0, rel=0.02)


def test_seed_does_not_depend_on_probe_detuning():
    # the probe detuning does not enter the probe-free state
    cases = [(0.0, +1), (0.0, -1), (3e-4, +1)]
    plus, minus, again = (first_order_zero(replace(PUMPED, delta_p=dp), s) for dp, s in cases)
    assert minus < 0 < plus == again


@pytest.mark.parametrize("p", [PUMPED, replace(PUMPED, g42=4.0, lambda_pump=2e-5)])
def test_seed_ignores_round_off_in_the_populations(p):
    # Im(rho22 - rho33) is the delta^5 coefficient of the seed polynomial,
    # zero for a Hermitian state; its round-off must not become a root
    dm0 = steady_state(probe_free(p))
    rho = dm0.rho.copy()
    rho[1, 1] += 1e-30j
    noisy = DensityMatrix(rho, system_matrix=dm0.system_matrix)
    for side in (+1, -1):
        exact = _first_order_zero(dm0, side)
        assert _first_order_zero(noisy, side) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("side", [+1, -1])
def test_seeded_bracket_is_tried_first_and_hits(side, count_calls):
    calls = count_calls("find_absorption_zero", observables)
    root = find_absorption_zero_auto(PUMPED, MEDIUM, side)
    assert len(calls) == 1
    lo, hi = calls[0][2]
    assert lo < root < hi and hi - lo == pytest.approx(0.02 * abs(root), rel=1e-4)
    assert root == pytest.approx(decade_zero(PUMPED, MEDIUM, side), rel=1e-10)


def test_strong_probe_takes_the_decade_path(count_calls):
    p = replace(PUMPED, g_p=2 * WEAK_PROBE_FACTOR * PUMPED.gamma23)
    calls = count_calls("find_absorption_zero", observables)
    seeds = count_calls("_first_order_zero", observables)
    assert outcome(find_absorption_zero_auto, p, MEDIUM) == outcome(decade_zero, p, MEDIUM)
    assert seeds == []
    assert calls[0][2] == auto_zero_bracket(p)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(NumericError("probe block singular", code="SINGULAR"), id="raises"),
        pytest.param(1e15, id="beyond-reach"),
        pytest.param(0.5 * 2.6241e-4, id="misses"),
        # the seed's probe-free matrix: one whose state has trace 1/2,
        # which the gate refuses, and a singular one, on which LAPACK raises
        pytest.param(2.0 * np.eye(16), id="state-refused"),
        pytest.param(np.zeros((16, 16)), id="state-singular"),
    ],
)
def test_failed_seed_falls_back_to_the_decade_root(seed, monkeypatch):
    def first_order(p, side):
        if isinstance(seed, Exception):
            raise seed
        return side * seed

    expected = decade_zero(PUMPED, MEDIUM)
    if isinstance(seed, np.ndarray):
        monkeypatch.setattr(observables, "assemble", lambda p: seed.astype(complex))
        assert observables._seed_bracket(PUMPED, +1, math.inf) is None
    else:
        monkeypatch.setattr(observables, "_first_order_zero", first_order)
    assert find_absorption_zero_auto(PUMPED, MEDIUM) == expected


def test_conserved_rho11_is_singular_with_the_seed_tried():
    # rho11 conserved (g41 = g42 = gamma13 = 0): LAPACK's probe-free seed
    # state passes the gate on some of these draws, where steady_state's
    # pivot threshold refuses every one; the search must still say SINGULAR
    for p in conserved_rho11_draws():
        p = replace(p, g_p=min(p.g_p, 0.9 * WEAK_PROBE_FACTOR * p.gamma23))
        for side in (+1, -1):
            assert outcome(find_absorption_zero_auto, p, MEDIUM, side) == "SINGULAR", p


def test_seeded_bracket_error_falls_back(monkeypatch):
    real = observables.find_absorption_zero
    brackets = []

    def first_fails(p, m, bracket):
        brackets.append(bracket)
        if len(brackets) == 1:
            raise NumericError("did not converge", code="NO_CONVERGENCE")
        return real(p, m, bracket)

    expected = decade_zero(PUMPED, MEDIUM)
    monkeypatch.setattr(observables, "find_absorption_zero", first_fails)
    assert find_absorption_zero_auto(PUMPED, MEDIUM) == expected
    assert brackets[1] == auto_zero_bracket(PUMPED)


# --- Newton iterates on the resolvent against direct solves ---

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "golden.json").read_text(encoding="utf-8")
)


def force_direct_route(monkeypatch):
    """Refuse every resolvent, so that each Newton iterate is solved on its
    own, as before the finders used it."""

    def refuse(*args):
        raise np.linalg.LinAlgError("resolvent refused")

    monkeypatch.setattr(observables, "_Resolvent", refuse)


def golden_drive_roots():
    """The gain threshold of each golden pump drive, and the crossings on
    both sides at every point of its sweep, or the error codes."""
    found = []
    for drive in GOLDEN["pump_drives"]:
        overrides = {"g42": repr(drive["g42"]), "start": repr(drive["start"])}
        spec = parse_config(GOLDEN["pump_config"], overrides)
        lambda_range = tuple(GOLDEN["threshold_range"])
        found.append(outcome(find_gain_threshold, spec.params, spec.medium, lambda_range))
        for lam in spec.grid():
            p = replace(spec.params, lambda_pump=lam)
            found.extend(outcome(find_absorption_zero_auto, p, spec.medium, s) for s in (1, -1))
    return found


@pytest.mark.parametrize(
    "gate, value",
    [
        # the resolvent's backward-error gate reads the shared BACKWARD_TOL
        pytest.param("BACKWARD_TOL", -1.0, id="RESOLVENT_BACKWARD_TOL--1.0"),
        ("RESOLVENT_COND_MAX", 0.0),
        ("RESOLVENT_AGREEMENT_RTOL", -1.0),
    ],
)
def test_failed_gate_reproduces_direct_route(monkeypatch, refuse_resolvent_gate, gate, value):
    with monkeypatch.context() as mp:
        force_direct_route(mp)
        direct = golden_drive_roots()
    assert all(isinstance(root, float) for root in direct)
    refuse_resolvent_gate(gate, value)
    assert golden_drive_roots() == direct


@pytest.mark.parametrize(
    "finder, p, bracket, want",
    [
        pytest.param(
            find_absorption_zero, replace(PUMPED, g41=0.0), (1e-5, 1e-3), "NO_SIGN_CHANGE",
            id="zero-undriven-probe",
        ),
        pytest.param(
            find_absorption_zero, replace(PUMPED, g41=0.0, g42=0.0), (1e-5, 1e-3), "SINGULAR",
            id="zero-conserved-rho11",
        ),
        pytest.param(
            find_gain_threshold, replace(SPIKE, g41=0.0), (0.0, 1e-2), "TRAPPED",
            id="threshold-trapped-at-zero-pump",
        ),
        pytest.param(
            find_gain_threshold, SPIKE, (0.0, 1e-2), 1.6444e-5, id="threshold-from-zero-pump",
        ),
        pytest.param(
            find_gain_threshold, replace(SPIKE, g42=0.0), (1e-8, 1e-2), "NO_SIGN_CHANGE",
            id="threshold-without-drive",
        ),
    ],
)
def test_lower_end_edge_cases_match_direct_route(monkeypatch, finder, p, bracket, want):
    """The lower end taken from the resolvent gives the direct route's
    root or error code where that end is singular, trapped or unsigned."""
    got = outcome(finder, p, MEDIUM, bracket)
    with monkeypatch.context() as mp:
        force_direct_route(mp)
        direct = outcome(finder, p, MEDIUM, bracket)
    assert_same(got, direct, 1e-10)
    assert_same(got, want, 1e-4)


def test_resolvent_route_agrees_with_direct_route_on_seeded_draws(monkeypatch, count_calls):
    """25 pumped draws like the bench's random states: the crossings on
    both sides and the gain threshold within 1e-10 of the direct route's,
    and the same error codes.  Every Newton iterate comes from the
    resolvent, so the only direct evaluations are the zero finder's
    verifications, one per crossing found."""
    rng = np.random.default_rng(20)
    draws = [seeded_draw(rng, pumped=True) for _ in range(25)]

    def roots():
        zeros = [outcome(find_absorption_zero_auto, p, MEDIUM, s) for p in draws for s in (1, -1)]
        stars = [outcome(find_gain_threshold, p, MEDIUM, (1e-8, 1e-2)) for p in draws]
        return zeros, stars

    direct = count_calls("_chi_and_derivative", observables)
    zeros, stars = roots()
    found = sum(isinstance(root, float) for root in zeros)
    assert len(direct) == found >= 20
    with monkeypatch.context() as mp:
        force_direct_route(mp)
        ref_zeros, ref_stars = roots()
    assert all(isinstance(star, float) for star in ref_stars)
    for got, want in zip(zeros + stars, ref_zeros + ref_stars):
        assert_same(got, want, 1e-10)


def test_refused_iterate_alone_is_solved_directly(monkeypatch, count_calls):
    expected = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    real = steady_state_module._Resolvent.state_and_derivative
    asked = []

    def refuse_first(self, s):
        asked.append(s)
        return None if len(asked) == 1 else real(self, s)

    monkeypatch.setattr(steady_state_module._Resolvent, "state_and_derivative", refuse_first)
    direct = count_calls("_chi_and_derivative", observables)
    star = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    assert len(asked) >= 3
    assert [args[0].lambda_pump for args in direct] == asked[:1]
    assert star == pytest.approx(expected, rel=1e-10)


# --- the resolvent's one cross-check, at the root ---

RHO23 = steady_state_module._index(2, 3)


def perturb_resolvent(monkeypatch, change):
    """Give every resolvent row at the axis value s the probe coherence
    ``change(s, rho23)``, after its gate has judged it; the Newton iterates
    read their states through the same rows."""
    real = steady_state_module._Resolvent.states

    def perturbed(self, s):
        x, ok = real(self, s)
        x = x.copy()
        x[:, RHO23] = [change(v, rho) for v, rho in zip(s.tolist(), x[:, RHO23])]
        return x, ok

    monkeypatch.setattr(steady_state_module._Resolvent, "states", perturbed)


def at_value(target, change):
    """A perturbation of the row at exactly ``target``, and of no other."""
    return lambda s, rho: change(rho) if s == target else rho


def forced_direct(monkeypatch, finder, *args):
    with monkeypatch.context() as mp:
        force_direct_route(mp)
        return outcome(finder, *args)


FINDER_CASES = [
    pytest.param(find_absorption_zero, PUMPED, (1e-5, 1e-3), "delta_p", id="zero"),
    pytest.param(find_gain_threshold, SPIKE, (1e-8, 1e-2), "lambda_pump", id="threshold"),
]


@pytest.mark.parametrize("finder, p, bracket, field", FINDER_CASES)
def test_resolvent_wrong_at_its_root_gives_the_direct_root(
    monkeypatch, count_calls, finder, p, bracket, field
):
    """The Newton iterates never sit on the returned root, so a resolvent
    wrong there alone steers nothing, and only the cross-check sees it:
    the ends and the iterates are then solved directly.  chi nearly
    vanishes at a threshold, so the error is 1e-9 of |rho23| at lo."""
    root = finder(p, MEDIUM, bracket)
    direct = forced_direct(monkeypatch, finder, p, MEDIUM, bracket)
    assert root == pytest.approx(direct, rel=1e-10)
    error = 1e-9 * abs(steady_state(replace(p, **{field: bracket[0]})).element(2, 3))
    perturb_resolvent(monkeypatch, at_value(root, lambda rho: rho + error))
    solves = count_calls("steady_state", observables)
    assert outcome(finder, p, MEDIUM, bracket) == direct
    assert getattr(solves[0][0], field) == root
    assert [getattr(args[0], field) for args in solves[1:3]] == [bracket[1], bracket[0]]


@pytest.mark.parametrize("finder, p, bracket, field", FINDER_CASES)
def test_resolvent_wrong_at_hi_only_moves_the_start(
    monkeypatch, count_calls, finder, p, bracket, field
):
    """The upper end's value, wrong but of the right sign, only moves the
    secant start: the root stays within the finder's tolerance of the
    direct route's, and nothing is solved at hi."""
    direct = forced_direct(monkeypatch, finder, p, MEDIUM, bracket)
    perturb_resolvent(monkeypatch, at_value(bracket[1], lambda rho: 3 * rho))
    solves = count_calls("steady_state", observables)
    assert outcome(finder, p, MEDIUM, bracket) == pytest.approx(direct, rel=1e-6)
    assert len(solves) == 1 and getattr(solves[0][0], field) != bracket[1]


@pytest.mark.parametrize("finder, p, bracket, field", FINDER_CASES)
def test_wrongly_reported_miss_is_refused_by_the_solve_at_hi(
    monkeypatch, count_calls, finder, p, bracket, field
):
    """A resolvent whose upper end has the wrong sign reports a miss where
    the bracket holds a crossing; the direct solve at hi refuses it, and
    the direct route finds the crossing."""
    direct = forced_direct(monkeypatch, finder, p, MEDIUM, bracket)
    perturb_resolvent(monkeypatch, at_value(bracket[1], lambda rho: rho.conjugate()))
    solves = count_calls("steady_state", observables)
    assert outcome(finder, p, MEDIUM, bracket) == direct
    assert getattr(solves[0][0], field) == bracket[1]


@pytest.mark.parametrize(
    "finder, p, bracket, field",
    [
        pytest.param(find_absorption_zero, SPIKE, (1e-5, 1e-3), "delta_p", id="zero"),
        pytest.param(
            find_gain_threshold, replace(SPIKE, g42=0.0), (1e-8, 1e-2), "lambda_pump",
            id="threshold",
        ),
    ],
)
def test_resolvent_wrong_near_hi_cannot_make_a_crossing(
    monkeypatch, count_calls, finder, p, bracket, field
):
    """A resolvent error that grows towards hi and flips its sign there
    makes a crossing the bracket does not hold; at that false root the
    resolvent is off by the whole of chi'', so the cross-check refuses it
    and the direct route reports the miss."""
    lo, hi = bracket
    mid = math.sqrt(lo * hi)
    flip = -2j * steady_state(replace(p, **{field: hi})).element(2, 3).imag
    direct = forced_direct(monkeypatch, finder, p, MEDIUM, bracket)
    assert direct == "NO_SIGN_CHANGE"
    perturb_resolvent(
        monkeypatch,
        lambda s, rho: rho + flip * ((s - mid) / (hi - mid)) ** 2 if s > mid else rho,
    )
    searches = count_calls("_bracketed_newton", observables)
    assert outcome(finder, p, MEDIUM, bracket) == direct
    # the one search ran on the resolvent; the direct ends share a sign
    assert len(searches) == 1


def test_one_assemble_per_direct_solve_and_resolvent_build(count_calls):
    """One curve of the pump-scan figure at g42 = 4: the gain threshold,
    then a DELTA0, SLOPE, NG sweep from just above it.  Each matrix is
    assembled once, by the direct solve or the resolvent build that uses
    it, or by the zero search's seed; derivatives take it from the solved
    state, and the first-order crossing from the seed's."""
    assert not hasattr(sweep, "assemble")
    assembles = count_calls("assemble", steady_state_module)
    seed_assembles = count_calls("assemble", observables)
    seeds = count_calls("_seed_bracket", observables)
    solves = count_calls("steady_state", observables, sweep)
    builds = count_calls("_Resolvent", observables, sweep)
    overrides = {"g42": "4", "outputs": "DELTA0,SLOPE,NG", "start": "1e-5"}
    base = parse_config(GOLDEN["pump_config"], overrides)
    star = find_gain_threshold(base.params, base.medium, tuple(GOLDEN["threshold_range"]))
    spec = parse_config(GOLDEN["pump_config"], overrides | {"start": repr(1.01 * star)})
    table = run_sweep(spec)
    assert len(table.rows) == spec.points and not table.failures
    assert len(assembles) == len(solves) + len(builds) > 0
    assert len(seed_assembles) == len(seeds) == spec.points


# --- the safeguarded Newton routine ---

def arctan_shifted(x):
    return math.atan(x - 3.0), 1.0 / (1.0 + (x - 3.0) ** 2)


def test_newton_falls_back_to_bisection_on_overshoot():
    seen = []

    def f(x):
        seen.append(x)
        return arctan_shifted(x)

    a, b = 0.0, 40.0
    root = _bracketed_newton(f, a, b, f(a)[0], f(b)[0], rel_tol=1e-12)
    assert root == pytest.approx(3.0, abs=1e-10)
    # the first interior iterate is far out on the arctan plateau, where
    # the plain Newton step lands outside the bracket
    first = seen[2]
    value, slope = arctan_shifted(first)
    assert not a < first - value / slope < b
    assert seen[3] == pytest.approx(0.5 * (a + first))


def cubic_without_slope(x):
    return (x - 0.7) ** 3, 0.0


def test_newton_bisects_on_zero_derivative():
    root = _bracketed_newton(cubic_without_slope, 0.0, 3.0, -0.343, 12.167, abs_tol=1e-9)
    assert root == pytest.approx(0.7, abs=1e-9)


def test_newton_bisects_when_the_secant_point_rounds_onto_an_end():
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2.0, 2.0 * x

    # the secant point 1 + 1e-300 rounds onto the lower end
    root = _bracketed_newton(f, 1.0, 2.0, -1e-300, 1.0, rel_tol=1e-15)
    assert seen[0] == 1.5
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(observables, "NEWTON_MAX_ITER", 5)
    with pytest.raises(NumericError) as exc:
        _bracketed_newton(cubic_without_slope, 0.0, 3.0, -0.343, 12.167, abs_tol=1e-12)
    assert exc.value.code == "NO_CONVERGENCE"


def test_newton_converges_quadratically_near_the_root():
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2.0, 2.0 * x

    root = _bracketed_newton(f, 1.0, 2.0, -1.0, 2.0, rel_tol=1e-15)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert len(seen) <= 6
