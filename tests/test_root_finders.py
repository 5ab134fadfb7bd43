"""The bracketed Newton root finders against the scan-and-bisect finders
they replaced, kept here as a reference; the first-order seed of the
automatic zero finder against its decade search; bracket ends and Newton
iterates on hint states against steady_state solves; and the safeguard of
the Newton routine itself."""

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
from test_sweep import refuse_seed_state

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


def test_miss_costs_one_solve_and_two_hints(count_calls):
    """Both ends are hint states, so a bracket whose ends share a sign
    costs those two hints and the solve that confirms the miss at the end
    farther from zero, hi on the positive half-axis and lo on the
    negative, and builds no resolvent."""
    solves = count_calls("steady_state", observables)
    hints = count_calls("_hint_state", observables)
    builds = count_calls("_Resolvent", steady_state_module, sweep)
    for bracket, far in (((1e-5, 1e-3), 1e-3), ((-1e-3, -1e-5), -1e-3)):
        solves.clear()
        hints.clear()
        with pytest.raises(NumericError, match="does not change sign"):
            find_absorption_zero(SPIKE, MEDIUM, bracket)
        assert [args[0].delta_p for args in solves] == [far]
        assert [args[0].delta_p for args in hints] == list(bracket)
    assert builds == []


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
        # the seed's hint refused by the gate, or by LAPACK
        pytest.param("gate", id="state-refused"),
        pytest.param("linalg", id="state-singular"),
    ],
)
def test_failed_seed_falls_back_to_the_decade_root(seed, monkeypatch):
    def first_order(p, side):
        if isinstance(seed, Exception):
            raise seed
        return side * seed

    expected = decade_zero(PUMPED, MEDIUM)
    if isinstance(seed, str):
        refuse_seed_state(monkeypatch, seed)
        assert observables._seed_bracket(PUMPED, +1, math.inf) is None
    else:
        monkeypatch.setattr(observables, "_first_order_zero", first_order)
    assert find_absorption_zero_auto(PUMPED, MEDIUM) == expected


def test_conserved_rho11_is_singular_with_the_seed_tried():
    # rho11 conserved (g41 = g42 = gamma13 = 0): LAPACK's hint states, the
    # seed's and the searches', pass the gate on some of these draws, where
    # steady_state's pivot threshold refuses every one.  Every exit of
    # either finder passes a steady_state solve, so each must still say
    # SINGULAR, or TRAPPED for a pump range from 0
    for p in conserved_rho11_draws():
        weak = replace(p, g_p=min(p.g_p, 0.9 * WEAK_PROBE_FACTOR * p.gamma23))
        for side in (+1, -1):
            assert outcome(find_absorption_zero_auto, weak, MEDIUM, side) == "SINGULAR", p
        assert outcome(find_absorption_zero, p, MEDIUM, (1e-5, 1e-3)) == "SINGULAR", p
        assert outcome(find_gain_threshold, p, MEDIUM, (1e-8, 1e-2)) == "SINGULAR", p
        assert outcome(find_gain_threshold, p, MEDIUM, (0.0, 1e-2)) == "TRAPPED", p


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


# --- bracket ends and Newton iterates on hint states against steady_state ---

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "golden.json").read_text(encoding="utf-8")
)


def force_direct_route(monkeypatch):
    """Refuse every hint state but the seed's (g_p = 0), so that each
    bracket end and Newton iterate is a steady_state solve."""
    real = observables._hint_state

    def refuse(p):
        if p.g_p != 0:
            raise np.linalg.LinAlgError("hint refused")
        return real(p)

    monkeypatch.setattr(observables, "_hint_state", refuse)


def forced_direct(monkeypatch, finder, *args):
    with monkeypatch.context() as mp:
        force_direct_route(mp)
        return outcome(finder, *args)


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
    """The lower end taken from a hint gives the steady_state route's root
    or error code where that end is singular, trapped or unsigned."""
    got = outcome(finder, p, MEDIUM, bracket)
    direct = forced_direct(monkeypatch, finder, p, MEDIUM, bracket)
    assert_same(got, direct, 1e-10)
    assert_same(got, want, 1e-4)


def trap_edge_draw(rng):
    """The weak-coupling trap corner: gamma13 and g41 at or near 0, a weak
    to strong drive, and no pump or a weak one."""
    return SystemParams(
        g41=float(rng.choice([0.0, 1e-6, 1e-4, 1e-3, 0.04])), g42=10 ** rng.uniform(-3, 1),
        g_p=1e-4, gamma13=float(rng.choice([0.0, 1e-12, 1e-8])),
        lambda_pump=0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-9, -3), **MERCURY,
    )


@pytest.mark.parametrize(
    "draw, count, min_zeros, every_star, min_roots",
    [
        pytest.param(lambda rng: seeded_draw(rng, pumped=True), 25, 20, True, 0, id="pumped"),
        pytest.param(trap_edge_draw, 150, 0, False, 40, id="trap-edge"),
    ],
)
def test_hint_route_agrees_with_direct_route_on_seeded_draws(
    monkeypatch, count_calls, draw, count, min_zeros, every_star, min_roots
):
    """The crossings on both sides and the gain thresholds from 1e-8 and
    from 0 within 1e-10 of the steady_state route's, and the same error
    codes: 25 pumped draws like the bench's random states, where every
    threshold is a root and at least 20 crossings are found, and 150 at
    the trap edge.  Every end and Newton iterate is a hint, so the only
    steady_state evaluations with a derivative are the zero finder's
    verifications, one per crossing found."""
    rng = np.random.default_rng(20)
    draws = [draw(rng) for _ in range(count)]

    def roots():
        zeros = [outcome(find_absorption_zero_auto, p, MEDIUM, s) for p in draws for s in (1, -1)]
        ranges = ((1e-8, 1e-2), (0.0, 1e-2))
        stars = [outcome(find_gain_threshold, p, MEDIUM, r) for p in draws for r in ranges]
        return zeros, stars

    direct = count_calls("_chi_and_derivative", observables)
    zeros, stars = roots()
    found = sum(isinstance(root, float) for root in zeros)
    assert len(direct) == found >= min_zeros
    assert found + sum(isinstance(star, float) for star in stars) >= min_roots
    with monkeypatch.context() as mp:
        force_direct_route(mp)
        ref_zeros, ref_stars = roots()
    if every_star:
        assert all(isinstance(star, float) for star in ref_stars)
    for got, want in zip(zeros + stars, ref_zeros + ref_stars):
        assert_same(got, want, 1e-10)


DRAW_SETS = [
    pytest.param(lambda rng: seeded_draw(rng, pumped=True), 25, id="pumped"),
    pytest.param(lambda rng: seeded_draw(rng, pumped=False), 100, id="general"),
    pytest.param(trap_edge_draw, 150, id="trap-edge"),
]


def mirror(p):
    """The parameters with every detuning negated, which maps chi to
    -conj(chi) as a function of the probe detuning."""
    return replace(p, delta41=-p.delta41, delta42=-p.delta42, delta_p=-p.delta_p)


@pytest.mark.parametrize("draw, count", DRAW_SETS)
def test_the_two_sides_of_the_zero_search_are_mirror_images(draw, count):
    """The search on one side at p is the negated search on the other
    side at mirror(p): the same error code, or roots within 1e-10."""
    rng = np.random.default_rng(20)
    for p in [draw(rng) for _ in range(count)]:
        for side in (+1, -1):
            got = outcome(find_absorption_zero_auto, p, MEDIUM, side)
            want = outcome(find_absorption_zero_auto, mirror(p), MEDIUM, -side)
            assert_same(got, want if isinstance(want, str) else -want, 1e-10)


@pytest.mark.parametrize("draw, count", DRAW_SETS)
def test_no_zero_search_solves_a_detuning_twice(count_calls, draw, count):
    """Each miss is confirmed at the end farther from zero, which moves as
    the decade brackets widen, so no search on either side solves the
    same probe detuning twice (-0.0 and 0.0 are the same detuning)."""
    rng = np.random.default_rng(20)
    draws = [draw(rng) for _ in range(count)]
    solves = count_calls("steady_state", observables)
    misses = 0
    for p in draws:
        for side in (+1, -1):
            observables._chi_and_derivative.cache_clear()
            solves.clear()
            outcome(find_absorption_zero_auto, p, MEDIUM, side)
            detunings = [args[0].delta_p for args in solves]
            assert len(set(detunings)) == len(detunings), (p, side, detunings)
            misses += len(detunings) > 1
    assert misses > 0


def test_refused_iterate_alone_is_solved_directly(monkeypatch, count_calls):
    """A Newton iterate whose hint is refused is solved by steady_state,
    and no other value is: the only other solve is the check at the root."""
    expected = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    real = observables._hint_state
    asked = []

    def refuse_first_iterate(p):
        asked.append(p.lambda_pump)
        if len(asked) == 3:
            raise NumericError("hint refused", code="BAD_SOLUTION")
        return real(p)

    monkeypatch.setattr(observables, "_hint_state", refuse_first_iterate)
    solves = count_calls("steady_state", observables)
    star = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    assert asked[:2] == [1e-8, 1e-2] and len(asked) >= 5
    assert [args[0].lambda_pump for args in solves] == [asked[2], star]
    assert star == pytest.approx(expected, rel=1e-10)


def test_refused_hint_derivative_alone_is_solved_directly(monkeypatch, count_calls):
    """A Newton iterate whose hint passes but whose hint's derivative is
    refused is solved by steady_state, with its derivative: the only other
    solve is the check at the root."""
    expected = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    real = observables.steady_state_derivative
    taken = []

    def refuse_first(dm, field):
        taken.append(dm)
        if len(taken) == 1:
            raise NumericError("derivative refused", code="BAD_SOLUTION")
        return real(dm, field)

    monkeypatch.setattr(observables, "steady_state_derivative", refuse_first)
    hints = count_calls("_hint_state", observables)
    solves = count_calls("steady_state", observables)
    star = find_gain_threshold(SPIKE, MEDIUM, (1e-8, 1e-2))
    iterate = hints[2][0].lambda_pump
    assert [args[0].lambda_pump for args in solves] == [iterate, star]
    assert taken[1].system_matrix is not taken[0].system_matrix
    assert star == pytest.approx(expected, rel=1e-10)


def perturb_hints(monkeypatch, field, change):
    """Give the hint state at the value s of ``field`` the probe coherence
    ``change(s, rho23)``, after its gate has judged it."""
    real = observables._hint_state

    def perturbed(p):
        dm = real(p)
        rho = dm.rho.copy()
        rho[1, 2] = change(getattr(p, field), rho[1, 2])
        return DensityMatrix(rho, system_matrix=dm.system_matrix)

    monkeypatch.setattr(observables, "_hint_state", perturbed)


def at_value(target, change):
    """A perturbation of the state at exactly ``target``, and of no other."""
    return lambda s, rho: change(rho) if s == target else rho


FINDER_CASES = [
    pytest.param(find_absorption_zero, PUMPED, (1e-5, 1e-3), "delta_p", id="zero"),
    pytest.param(find_absorption_zero, PUMPED, (-1e-3, -1e-5), "delta_p", id="zero-negative"),
    pytest.param(find_gain_threshold, SPIKE, (1e-8, 1e-2), "lambda_pump", id="threshold"),
]


@pytest.mark.parametrize("finder, p, bracket, field", FINDER_CASES)
def test_wrongly_reported_miss_is_refused_by_the_solve_at_hi(
    monkeypatch, count_calls, finder, p, bracket, field
):
    """A hint at the end farther from zero (hi, or lo on the negative
    half-axis) with the wrong sign reports a miss where the bracket holds
    a crossing; the steady_state solve at that end overrules it, and the
    search finds the crossing."""
    far = max(bracket, key=abs)
    direct = forced_direct(monkeypatch, finder, p, MEDIUM, bracket)
    perturb_hints(monkeypatch, field, at_value(far, lambda rho: rho.conjugate()))
    solves = count_calls("steady_state", observables)
    assert outcome(finder, p, MEDIUM, bracket) == pytest.approx(direct, rel=1e-10)
    assert getattr(solves[0][0], field) == far


def test_one_assemble_per_direct_solve_and_resolvent_build(count_calls):
    """One curve of the pump-scan figure at g42 = 4: the gain threshold,
    then a DELTA0, SLOPE, NG sweep from just above it.  Each matrix is
    assembled once, by the steady_state or the hint state that solves it;
    derivatives take it from the solved state, and the first-order
    crossing from the seed's hint.  Neither finder builds a resolvent."""
    assert not hasattr(sweep, "assemble") and not hasattr(observables, "assemble")
    assert not hasattr(observables, "_Resolvent")
    assembles = count_calls("assemble", steady_state_module)
    hints = count_calls("_hint_state", observables)
    seeds = count_calls("_seed_bracket", observables)
    solves = count_calls("steady_state", observables, sweep)
    builds = count_calls("_Resolvent", steady_state_module, sweep)
    overrides = {"g42": "4", "outputs": "DELTA0,SLOPE,NG", "start": "1e-5"}
    base = parse_config(GOLDEN["pump_config"], overrides)
    star = find_gain_threshold(base.params, base.medium, tuple(GOLDEN["threshold_range"]))
    spec = parse_config(GOLDEN["pump_config"], overrides | {"start": repr(1.01 * star)})
    table = run_sweep(spec)
    assert len(table.rows) == spec.points and not table.failures
    assert len(assembles) == len(solves) + len(hints) > len(solves)
    assert builds == []
    assert len(seeds) == spec.points


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
