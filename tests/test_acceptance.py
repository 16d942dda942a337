"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from convolab import (
    GridFunction,
    Mollifier,
    SpaceNorm,
    band_limited_probe,
    dft_pair,
    limit_operator_sweep,
    make_grid,
    maximal_function,
    mollify_sweep,
    multiplier_norm_lower_bound,
    parse_symbol,
    sample,
    space_norm,
    symbol_norms,
    verify_axioms,
)
from convolab.cli import main
from convolab.grid import filter_rows
from conjugation import out_of_band_mass, random_band_limited_probe
from conftest import identity_residual, tail_sup

L2 = SpaceNorm(2.0)


@contextmanager
def criterion(number, budget_s, description):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] {status}  {description} "
              f"({elapsed:.2f} s, budget {budget_s:.0f} s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_indicator_variation_constants():
    with criterion(1, 1.0, "indicator symbols have norms (1, 2, 3) exactly"):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = float(rng.uniform(-12, 10))
            d = c + float(rng.uniform(0.05, 6))
            sup, var, vn = symbol_norms(parse_symbol(f"indicator({c},{d})"))
            assert abs(sup - 1.0) <= 1e-12
            assert abs(var - 2.0) <= 1e-12
            assert abs(vn - 3.0) <= 1e-12


def test_criterion_02_round_trip_and_parseval():
    with criterion(2, 1.0, "transform round trip and Parseval to 1e-10"):
        rng = np.random.default_rng(2)
        for n in (64, 256, 1024):
            g = make_grid(8.0, n)
            f = GridFunction(g, rng.normal(size=n) + 1j * rng.normal(size=n))
            back = dft_pair(dft_pair(f, "forward"), "inverse")
            assert np.max(np.abs(back.values - f.values)) < 1e-10
            hat = dft_pair(f, "forward")
            lhs = float(np.sum(np.abs(hat.values) ** 2)) * g.dxi
            rhs = 2 * math.pi * float(np.sum(np.abs(f.values) ** 2)) * g.dx
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_criterion_03_modulation_shift_identity():
    with criterion(3, 5.0, "conjugation equals the shifted symbol on 50 triples"):
        g = make_grid(8.0, 256)
        rng = np.random.default_rng(3)
        symbols = [parse_symbol(s) for s in
                   ("indicator(-1,1)", "arctan", "rational_decay(1)",
                    "const(0.7)", "shift(indicator(2,3),-1)")]
        done = 0
        while done < 50:
            a = symbols[done % len(symbols)]
            lo = float(rng.uniform(-12, 8))
            band = (lo, lo + float(rng.uniform(0.5, 4.0)))
            h = int(rng.integers(1, 60)) * g.dxi  # a lattice shift
            if max(abs(band[0]), band[1] + h) >= g.freq_edge:
                continue
            f = random_band_limited_probe(g, band, done)
            assert identity_residual(a, h, f) < 1e-10
            done += 1


def test_criterion_04_limit_operator_decay():
    with criterion(4, 10.0, "conjugated norms annihilate/decay within the tail bound"):
        g = make_grid(8.0, 256)
        f = band_limited_probe(g, (1.0, 2.0))
        nf = space_norm(L2, f)

        # compactly supported symbol: exact annihilation once the shifted
        # band leaves the support (inf(band) + h > 1 holds for every h > 0)
        for row in limit_operator_sweep(parse_symbol("indicator(-1,1)"), g,
                                        (1.0, 2.0), g.dxi * np.arange(1, 121), L2):
            assert row.norm < 1e-10
            assert row.within_bound

        # decaying symbol: doubling the shift quarters the norm
        a = parse_symbol("rational_decay(1)")
        rows = limit_operator_sweep(a, g, (1.0, 2.0), (8.0, 16.0, 32.0), L2)
        for r1, r2 in zip(rows, rows[1:]):
            assert 0.25 / 2 <= r2.norm / r1.norm <= 0.25 * 2
        for row in rows:
            bound = 3.0 * tail_sup(a, 1.0 + row.shift) * nf
            assert row.norm <= bound + 1e-8


def test_criterion_05_maximal_operator():
    with criterion(5, 30.0, "fast scan == interval oracle; profile of M chi"):
        rng = np.random.default_rng(5)
        sizes = (64, 128, 256, 512)
        for trial in range(200):
            n = sizes[trial % len(sizes)]
            g = make_grid(8.0, n)
            vals = rng.normal(size=n)
            if trial % 9 == 0:
                vals = np.abs(vals)
            if trial % 7 == 0:
                vals = (rng.uniform(size=n) > 0.5).astype(float)
            f = GridFunction(g, vals)
            fast = maximal_function(f, "fast").values.real
            oracle = maximal_function(f, "oracle").values.real
            assert np.max(np.abs(fast - oracle)) <= 1e-12

        # the discrete M chi in closed form: the best window from node j
        # runs to the far end of the nodes i0..i1 of the sampled chi
        g = make_grid(8.0, 512)
        chi = sample("indicator(-1,1)", g)
        m = maximal_function(chi, "fast").values.real
        i0, i1 = np.flatnonzero(chi.values)[[0, -1]]
        j = np.arange(g.size)
        closed = (i1 - i0 + 1) / (np.maximum(j, i1) - np.minimum(j, i0) + 1)
        assert np.max(np.abs(m - closed)) <= 1e-12
        outside = np.abs(g.t) > 1.0
        assert np.all(1.0 / np.abs(g.t[outside]) <= m[outside] + 1e-12)


def test_criterion_06_mollification():
    with criterion(6, 10.0, "pointwise domination and second-order convergence"):
        g = make_grid(16.0, 1024)  # the ladder runs 1 .. dx/2 = 1/64
        probe = sample("gaussian", g)
        for kind in ("gaussian", "bump_spectrum"):
            phi = Mollifier(kind, g)
            rows = mollify_sweep(probe, phi, L2)
            assert all(r.pointwise_ok for r in rows)
            errors = [r.error for r in rows]
            assert all(b < a for a, b in zip(errors, errors[1:]))
            assert errors[-1] < 1e-3


def test_criterion_07_band_limited_kernel():
    with criterion(7, 2.0, "mollifier spectra vanish outside their bands"):
        g = make_grid(16.0, 1024)
        phi = Mollifier("bump_spectrum", g)
        hat = dft_pair(phi.kernel, "forward").values
        assert np.max(np.abs(hat[np.abs(g.xi) > 1.0])) < 1e-9
        smooth = sample("bump", g)
        for delta in (1.0, 0.5):
            approx = GridFunction(g, filter_rows(smooth.values, phi.spectrum(delta)))
            hat = dft_pair(approx, "forward").values
            outside = np.abs(g.xi) > 1.0 / delta
            assert np.max(np.abs(hat[outside])) < 1e-9


def test_criterion_08_density(tmp_path):
    with criterion(8, 10.0, "band-limited approximant within eps = 0.1"):
        config = tmp_path / "density.ini"
        config.write_text("[grid]\nL = 16\nn = 4096\n"
                          "[density]\nf = indicator(-1,1)\nepsilon = 0.1\n")
        assert main(["density", "--config", str(config), "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "density.json").read_text())["result"]
        assert result["achieved"] < 0.1
        g = make_grid(16.0, 4096)
        spectrum = Mollifier("bump_spectrum", g).spectrum(result["delta"])
        chi = sample("indicator(-1,1)", g)
        approx = GridFunction(g, filter_rows(chi.values, spectrum))
        assert out_of_band_mass(approx, result["band"]) < 1e-9


def test_criterion_09_stechkin_at_p2():
    with criterion(9, 5.0, "multiplier norm below the variation norm at p=2"):
        g = make_grid(8.0, 256)
        for label in ("indicator(-1,1)", "arctan", "rational_decay(1)"):
            a = parse_symbol(label)
            lower = multiplier_norm_lower_bound(a(g.xi), L2, trials=10, seed=9,
                                                grid=g).lower
            assert lower <= symbol_norms(a).v_norm + 1e-8
            diagonal = float(np.max(np.abs(a(g.xi))))
            assert abs(lower - diagonal) <= 1e-10


def test_criterion_10_axiom_harness():
    with criterion(10, 10.0, "lattice-norm axioms hold on all three spaces"):
        for p, gamma in ((2.0, 0.0), (3.0, 1.0), (1.5, 0.0)):
            checks = verify_axioms(SpaceNorm(p, gamma), trials=50, seed=10,
                                   grid=make_grid(8.0, 256))
            assert all(c.passed for c in checks), (p, gamma, checks)
