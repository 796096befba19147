import functools
import inspect
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from electra import fixtures, models
from electra.models import (
    TAIL_TRUNCATION,
    BiasedCoin,
    CoinMaxOne,
    DemonCoin,
    DeterministicHalving,
    ExplicitMatrix,
    FairCoin,
    SurvivorModel,
    ToyHalving,
    _binomial_rows,
    _coin_rows,
    _peak_rows,
    _Shared,
    float_row,
    model_from_name,
    peak_circular,
    peak_linear_i,
    peak_linear_ii,
)


def test_toy_pmf():
    toy = ToyHalving()
    assert toy.pmf_exact(5) == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert toy.pmf_exact(8) == {4: Fraction(1)}
    assert toy.pmf_exact(1) == {1: Fraction(1)}


def _exact_mean(model, n):
    return sum(k * p for k, p in model.pmf_exact(n).items())


def test_fair_coin_pmf_and_mean():
    fc = FairCoin()
    assert fc.pmf_exact(3) == {
        1: Fraction(3, 8),
        2: Fraction(3, 8),
        3: Fraction(1, 4),  # 1/8 binomial mass plus the 1/8 all-tails rescue
    }
    for n in range(1, 41):
        assert _exact_mean(fc, n) == Fraction(n, 2) + n * Fraction(1, 2**n)


def test_read_rows_total_mass():
    # integer rows sum to their denominator, float rows to 1, across the cutoff
    for model in (ToyHalving(exact_cutoff=7), FairCoin(exact_cutoff=7),
                  BiasedCoin(Fraction(7, 10), exact_cutoff=7),
                  CoinMaxOne(Fraction(2, 5), exact_cutoff=7),
                  peak_circular(exact_cutoff=7), peak_linear_i(exact_cutoff=7)):
        for n, row in enumerate(model.read_rows(1, 41), 1):
            if n <= 7:
                lo, nums, den = row
                assert sum(nums) == den
            else:
                lo, probs = row
                assert math.isclose(math.fsum(probs.tolist()), 1.0, abs_tol=1e-12)
            assert 0 <= lo <= n


def test_no_model_can_stall():
    # a round of two or more players keeps everyone with probability < 1
    for model in (ToyHalving(), DeterministicHalving(), FairCoin(),
                  BiasedCoin(Fraction(9, 10)), CoinMaxOne(Fraction(2, 5)),
                  DemonCoin(Fraction(1, 2), Fraction(1, 2)),
                  peak_circular(), peak_linear_i()):
        for n in range(2, 30):
            assert model.pmf_exact(n).get(n, Fraction(0)) < 1


@pytest.mark.parametrize("n", [5, 76, 150, 400])
def test_float_backend_mass(n):
    for model in (FairCoin(), BiasedCoin(Fraction(3, 10)), CoinMaxOne(Fraction(1, 2)),
                  peak_circular(), FairCoin(exact_cutoff=0),
                  BiasedCoin(Fraction(9, 10), exact_cutoff=0)):
        pmf = model.pmf_float(n)
        assert abs(sum(pmf.values()) - 1.0) < 1e-12
        assert all(p > 0 for p in pmf.values())


@functools.cache
def _exact_window(p, n):
    """Bi(n, p) from integer rows over one denominator: the window [lo, hi]
    that exact tail sums give (k below lo hold less than TAIL_TRUNCATION in
    all, as do k above hi), its numerators, the numerators of k = 0, 1, and
    the denominator."""
    a, b = p.numerator, p.denominator
    nums = [(b - a) ** n]  # C(n,k) a^k (b-a)^(n-k), k = 0..n
    for k in range(n):
        nums.append(nums[-1] * (n - k) * a // ((k + 1) * (b - a)))
    den = b**n
    cut = Fraction(TAIL_TRUNCATION)

    def first_kept(masses):
        total = 0
        for i, x in enumerate(masses):
            total += x
            if total * cut.denominator >= cut.numerator * den:
                return i

    lo, hi = first_kept(nums), n - first_kept(reversed(nums))
    return lo, hi, nums[lo : hi + 1], nums[:2], den


def _reference_window_row(model, n):
    """A coin model's float row from integer rows: the exact Bi(n, p)
    window, then the model's rule for the low end, rounded at the end."""
    lo, hi, window, (tails, one), den = _exact_window(model.p, n)
    heads = dict(enumerate(window, lo))
    if isinstance(model, BiasedCoin):
        heads.pop(0, None)
        if Fraction(tails, den) >= TAIL_TRUNCATION:  # the all-tails rescue
            heads[n] = heads.get(n, 0) + tails
    elif isinstance(model, CoinMaxOne):
        heads.pop(0, None)
        heads.pop(1, None)
        if Fraction(tails + one, den) >= TAIL_TRUNCATION:
            heads[1] = tails + one
    else:
        kill, scale = model.nu.numerator, model.nu.denominator
        heads = {
            j: (scale if j == 0 else scale - kill) * heads.get(j, 0) + kill * heads.get(j + 1, 0)
            for j in range(max(lo - 1, 0), hi + 1)
        }
        den *= scale
    return {k: x / den for k, x in heads.items() if x}


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)])
@pytest.mark.parametrize("kind", [BiasedCoin, CoinMaxOne, DemonCoin])
def test_batched_coin_rows_are_bit_identical(kind, p):
    # the engine's array rows against the pmf_float dicts bit for bit, and
    # both against integer rows: the window bounds exactly, the masses to
    # 1e-12 relative; n < 100 holds the rescues at every p
    model = kind(p, Fraction(1, 3), exact_cutoff=0) if kind is DemonCoin else kind(p, exact_cutoff=0)
    rows = model.float_rows(1, 4097)
    for n in sorted({*range(1, 100, 3), *range(50, 2001, 50), 100, 1000, 4096}):
        lo, hi = _exact_window(p, n)[:2]
        window, heads, _ = _coin_rows(p)(n)
        assert (window, window + len(heads) - 1) == (lo, hi), n
        got = model.pmf_float(n)
        lo, probs = rows[n - 1]
        assert {k: v for k, v in enumerate(probs.tolist(), lo) if v != 0.0} == got
        want = _reference_window_row(model, n)
        assert set(got) == set(want), n
        assert all(abs(got[k] - v) <= 1e-12 * v for k, v in want.items()), n


def _small_prefix(monkeypatch, kept_bytes, spacing):
    """Caches built from here on keep ``kept_bytes`` of rows and a front
    every ``spacing`` rows past them."""
    monkeypatch.setattr(models, "_KEPT_BYTES", kept_bytes)
    monkeypatch.setattr(models, "_CHECKPOINT_ROWS", spacing)


def _same_row(got, want):
    # (first k, masses) and, for coin windows, the mass of k <= 1, bit for bit
    return (len(got) == len(want) and got[0] == want[0]
            and np.array_equal(got[1], want[1]) and got[2:] == want[2:])


@pytest.mark.parametrize("build", [
    functools.partial(_binomial_rows, Fraction(1, 2)),
    functools.partial(_binomial_rows, Fraction(3, 10)),
    functools.partial(_binomial_rows, Fraction(9, 10)),
    _peak_rows,
], ids=["coin-1/2", "coin-3/10", "coin-9/10", "peak-linear-i"])
def test_streamed_rows_equal_first_reads(build, monkeypatch):
    # past a 4 KiB prefix every read steps again from a front 64 rows
    # apart; each row has the bits of its first read, and the first reads
    # those of a cache that keeps all 700 rows
    top = 700
    kept_all = list(build().rows(0, top))
    _small_prefix(monkeypatch, 1 << 12, 64)
    rows = build()
    first = list(rows.rows(0, top))
    assert all(map(_same_row, first, kept_all))
    kept = len(rows._rows)
    assert 10 < kept < 100 and len(rows._fronts) >= 8  # past the prefix and several checkpoints
    for n in (0, 1, kept - 1, kept, kept + 1, kept + 63, kept + 64, kept + 65, 400, top - 1):
        assert _same_row(rows(n), first[n]), n
    for start, stop in ((0, top), (3, kept + 2), (kept - 2, kept + 70), (kept + 69, kept + 300),
                        (kept + 64, kept + 65), (top - 1, top)):
        got = list(rows.rows(start, stop))
        assert len(got) == stop - start and all(map(_same_row, got, first[start:stop]))
    cold = build()  # a first read far past the prefix grows every row below it
    assert _same_row(cold(500), first[500])
    assert all(map(_same_row, cold.rows(0, top), first))


@pytest.mark.parametrize("model", [
    FairCoin(exact_cutoff=0),
    BiasedCoin(Fraction(3, 10), exact_cutoff=5),
    CoinMaxOne(Fraction(9, 10), exact_cutoff=0),
    DemonCoin(Fraction(1, 2), Fraction(1, 3), exact_cutoff=0),
    DemonCoin(Fraction(1, 2), Fraction(1), exact_cutoff=5),
    peak_linear_i(exact_cutoff=0),
    peak_circular(exact_cutoff=5),
], ids=lambda m: m.name)
def test_models_map_over_streamed_rows(model, monkeypatch):
    # every recurrence-backed model reads its law's stream: through fresh
    # caches with a 4 KiB prefix its rows keep the shared caches' bits,
    # read once, again, one at a time and from past a checkpoint
    top = 700
    want = model.float_rows(1, top)
    _small_prefix(monkeypatch, 1 << 12, 64)
    monkeypatch.setattr(models, "_coin_rows", _Shared(_binomial_rows))
    monkeypatch.setattr(models, "_linear_float", _peak_rows())
    for got in (model.float_rows(1, top), model.float_rows(1, top)):
        assert all(map(_same_row, got, want))
    for n in (1, 6, 150, 301, top - 1):
        assert _same_row(model.float_rows(n, n + 1)[0], want[n - 1]), n
    assert all(map(_same_row, model.float_rows(333, 555), want[332:554]))


def test_coin_rows_agree_across_threads(monkeypatch):
    # each round grows a fresh coin cache from four threads asking out of
    # order; past its 64 KiB prefix each row is stepped from a front 4 rows apart
    _small_prefix(monkeypatch, 1 << 16, 4)
    p = Fraction(3, 10)
    sizes = list(range(0, 3000, 7))
    reference = _binomial_rows(p)
    expected = dict(zip(range(3000), reference.rows(0, 3000)))
    assert len(reference._rows) < 500
    rng = np.random.default_rng(6)
    rounds = 0
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and rounds < 20:
            rows = _binomial_rows(p)
            results = []

            def ask(order):
                results.append({n: rows(n) for n in order})

            threads = [
                threading.Thread(target=ask, args=(rng.permutation(sizes).tolist(),))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(results) == 4
            for got in results:
                for n in sizes:
                    assert _same_row(got[n], expected[n]), n
            rounds += 1
    finally:
        sys.setswitchinterval(switch)
    assert rounds >= 1


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 10), Fraction(9, 10)])
def test_integer_coin_rows_match_fractions(p):
    q = 1 - p
    for n in range(1, 41):
        row = [math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1)]
        biased = {k: row[k] for k in range(1, n + 1)}
        biased[n] += row[0]
        assert BiasedCoin(p).pmf_exact(n) == biased
        max_one = {k: row[k] for k in range(2, n + 1)}
        max_one[1] = row[0] + row[1] if n >= 2 else Fraction(1)
        assert CoinMaxOne(p).pmf_exact(n) == max_one
        nu = Fraction(1, 3)
        demon = {j: (1 - nu) * row[j] + nu * (row[j + 1] if j < n else 0) for j in range(n + 1)}
        demon[0] = row[0] + nu * row[1]
        assert DemonCoin(p, nu).pmf_exact(n) == demon
        lo, nums, den = DemonCoin(p, nu).exact_row(n)
        assert {k: Fraction(x, den) for k, x in enumerate(nums, lo)} == demon


def test_peak_model_rows_match_tables():
    pl = peak_linear_i()
    expected = {
        k: v for (n, k), v in fixtures.as_fractions(fixtures.PEAK_LINEAR_I).items() if n == 7
    }
    assert pl.pmf_exact(7) == expected
    assert _exact_mean(peak_circular(), 9) == 3


def test_biased_coin_rescue_mass():
    b = BiasedCoin(Fraction(3, 10))
    pmf = b.pmf_exact(4)
    # all-tails (0.7^4) folds into "everyone survives"
    assert pmf[4] == Fraction(3, 10) ** 4 + Fraction(7, 10) ** 4
    assert 0 not in pmf


def test_coin_max_one():
    cm = CoinMaxOne(Fraction(1, 2))
    pmf = cm.pmf_exact(3)
    assert pmf[1] == Fraction(1, 8) + Fraction(3, 8)
    assert sum(pmf.values()) == 1
    assert not cm.can_reach_zero


def test_demon_coin_chain():
    d = DemonCoin(Fraction(1, 2), Fraction(1, 2))
    assert d.can_reach_zero
    assert d.pmf_exact(0) == {0: Fraction(1)}
    pmf2 = d.pmf_exact(2)
    assert pmf2 == {0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)}


def test_demon_float_backend_matches_exact():
    slow = DemonCoin(Fraction(1, 2), Fraction(1, 3))
    fast = DemonCoin(Fraction(1, 2), Fraction(1, 3), exact_cutoff=50)
    exact = {k: float(v) for k, v in slow.pmf_exact(90).items()}
    window = fast.pmf_float(90)
    keys = set(exact) | set(window)
    assert max(abs(exact.get(k, 0.0) - window.get(k, 0.0)) for k in keys) < 1e-14


def test_demon_edge_nu():
    all_kill = DemonCoin(Fraction(1, 2), 1)
    assert sum(all_kill.pmf_exact(5).values()) == 1
    no_demon = DemonCoin(Fraction(1, 2), 0)
    fair_no_rescue = no_demon.pmf_exact(5)
    w = [math.comb(5, k) * Fraction(1, 2) ** 5 for k in range(6)]
    assert fair_no_rescue == {k: w[k] for k in range(6)}


def test_parameter_validation():
    with pytest.raises(ValueError):
        BiasedCoin(Fraction(0))
    with pytest.raises(ValueError):
        BiasedCoin(Fraction(1))
    with pytest.raises(ValueError):
        CoinMaxOne(Fraction(3, 2))
    with pytest.raises(ValueError):
        DemonCoin(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        ToyHalving().pmf_exact(0)
    for build in (ToyHalving, FairCoin, peak_linear_i):
        with pytest.raises(ValueError, match="exact_cutoff"):
            build(exact_cutoff=-1)
    assert FairCoin(exact_cutoff=0).exact_cutoff == 0


def test_deterministic_halving():
    dh = DeterministicHalving()
    for n in range(2, 30):
        assert dh.pmf_exact(n) == {n // 2: Fraction(1)}


def test_explicit_matrix_roundtrip(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("i,j,prob\n2,1,1/2\n2,2,0.5\n3,1,1\n")
    model = ExplicitMatrix.from_csv(path)
    assert model.pmf_exact(2) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert model.pmf_exact(3) == {1: Fraction(1)}
    assert model.pmf_exact(1) == {1: Fraction(1)}
    with pytest.raises(ValueError):
        model.pmf_exact(4)


def test_explicit_matrix_is_immutable_and_hashable():
    rows = {3: {1: Fraction(1)}, 2: {1: Fraction("0.3333333333"), 2: Fraction("0.6666666666")}}
    given = {i: dict(row) for i, row in rows.items()}
    model = ExplicitMatrix(rows=rows)
    assert rows == given  # the caller's dict is not rewritten
    assert model.pmf_exact(2) == {1: Fraction(1, 3), 2: Fraction(2, 3)}
    reordered = ExplicitMatrix(rows={2: dict(reversed(rows[2].items())), 3: rows[3]})
    assert model == reordered
    assert hash(model) == hash(reordered)


def test_explicit_matrix_rows_of_a_long_chain():
    # every row comes from one lookup built once, not a dict per row
    n_states = 2000
    rows = {i: {i - 1: Fraction(2, 3), i: Fraction(1, 3)} for i in range(2, n_states + 1)}
    model = ExplicitMatrix(rows=rows)
    floats = model.float_rows(1, n_states + 1)
    assert len(floats) == n_states
    for n, (lo, probs) in enumerate(floats, 1):
        lo_exact, nums, den = model.exact_row(n)
        assert lo == lo_exact
        assert probs.tolist() == [x / den for x in nums]
    assert model._row_lookup is model._row_lookup
    assert hash(model) == hash(ExplicitMatrix(rows=rows))
    with pytest.raises(AttributeError):
        model.rows = ()


def test_explicit_matrix_validation():
    with pytest.raises(ValueError, match="sums to"):
        ExplicitMatrix(rows={2: {1: Fraction(1, 2)}})
    with pytest.raises(ValueError, match="diagonal"):
        ExplicitMatrix(rows={2: {3: Fraction(1)}})
    with pytest.raises(ValueError, match="negative"):
        ExplicitMatrix(rows={2: {1: Fraction(3, 2), 2: Fraction(-1, 2)}})
    with pytest.raises(ValueError, match="below 0"):
        ExplicitMatrix(rows={2: {-1: Fraction(1, 2), 2: Fraction(1, 2)}})


def test_model_from_name():
    assert model_from_name("toy").name == "toy-halving"
    assert model_from_name("biased-coin", p="0.3").declared_alpha == Fraction(3, 10)
    assert model_from_name("demon", p="1/2", nu="1/4").name == "demon-coin(p=1/2,nu=1/4)"
    with pytest.raises(ValueError, match="needs p"):
        model_from_name("biased-coin")
    with pytest.raises(ValueError, match="needs nu"):
        model_from_name("demon", p="1/2")
    with pytest.raises(ValueError, match="unknown model"):
        model_from_name("nope")
    with pytest.raises(ValueError, match="CSV path"):
        model_from_name("explicit")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_model_class_is_built_by_name(tmp_path):
    # a concrete model no CLI name builds is a second, library-only path
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("i,j,prob\n2,1,1\n")
    built = {type(model_from_name(kind, p=Fraction(1, 3), nu=Fraction(1, 3)))
             for kind in models._MODEL_BUILDERS}
    built.add(type(model_from_name("explicit", matrix_path=matrix)))
    concrete = {cls for cls in _subclasses(SurvivorModel)
                if not inspect.isabstract(cls) and cls.__module__.startswith("electra.")}
    assert sorted(cls.__name__ for cls in concrete - built) == []


ROW_FAMILIES = [
    ToyHalving(exact_cutoff=40),
    DeterministicHalving(exact_cutoff=40),
    FairCoin(exact_cutoff=40),
    BiasedCoin(Fraction(3, 10), exact_cutoff=40),
    CoinMaxOne(Fraction(9, 10), exact_cutoff=40),
    DemonCoin(Fraction(1, 2), Fraction(1), exact_cutoff=40),
    DemonCoin(Fraction(1, 2), Fraction(1, 3), exact_cutoff=40),
    peak_linear_i(exact_cutoff=40),
    peak_linear_ii(exact_cutoff=40),
    peak_circular(exact_cutoff=40),
    ExplicitMatrix(
        rows={i: {j: Fraction(j, i * (i + 1) // 2) for j in range(1, i + 1)} for i in range(2, 9)},
        exact_cutoff=8,
    ),
]


@pytest.mark.parametrize("model", ROW_FAMILIES, ids=lambda m: m.name)
def test_row_interface_views(model):
    # the reader serves the integer rows up to the cutoff and float rows
    # beyond; a float row up to the cutoff is its exact row rounded, bit for
    # bit, and the dicts are views of the two rows on every n
    top = model.exact_cutoff
    stop = top + 1 if isinstance(model, ExplicitMatrix) else 3 * top + 1
    read = list(model.read_rows(1, stop))
    assert read[:top] == [model.exact_row(n) for n in range(1, top + 1)]
    rows = model.float_rows(1, top + 1)
    for n in range(1, top + 1):
        lo, nums, den = model.exact_row(n)
        assert sum(nums) == den and min(nums) >= 0
        flo, probs = rows[n - 1]
        assert flo == lo and probs.tolist() == [x / den for x in nums], n
        assert float_row(read[n - 1])[1].tolist() == probs.tolist()
        exact = {k: Fraction(x, den) for k, x in enumerate(nums, lo) if x}
        assert model.pmf_exact(n) == exact
        assert model.pmf_float(n) == {k: x / den for k, x in enumerate(nums, lo) if x}
    for n in range(top + 1, stop):
        [(lo, probs)] = model.float_rows(n, n + 1)
        assert len(read[n - 1]) == 2 and read[n - 1][0] == lo
        assert read[n - 1][1].tolist() == probs.tolist()
        assert model.pmf_float(n) == {k: p for k, p in enumerate(probs.tolist(), lo) if p}
