"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
Criteria 1 and 3-5 read the rows of one seed-1 suite run (conftest.py),
the run whose CSVs tests/test_golden.py checks against tests/golden/.
"""

import contextlib
import math
import time

import numpy as np

from neurofuzzy import cli, crossbar, experiments, fuzzy, network
from neurofuzzy.benchmarks import TABLE1
from neurofuzzy.crossbar import MemristorParams, delta_weight_sweep, map_network
from neurofuzzy.experiments import paper_modeling_config, run_modeling
from neurofuzzy.fuzzy import triangular_matrix, universe_from_count
from neurofuzzy.network import InputGroup, NetworkConfig, NetworkState, train_one
from oracles import forward_batch, ion_drift_x, states_equal


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_table1_reproduction(seed1_suite):
    with criterion(1, "table 1 reproduction"):
        # min-term counts of the protocol's seed: any change to training or to
        # the forward pass that alters a novelty decision shows here
        seed1_minterms = {"g1": 75, "g2": 161, "g3": 118, "g4": 110, "g5": 125}
        for fn, ref in TABLE1.items():
            r = seed1_suite["table1"][fn]
            assert r.n_minterms == seed1_minterms[fn], \
                f"{fn}: {r.n_minterms} min-terms at seed 1, expected {seed1_minterms[fn]}"
            assert r.fvu_or_rate <= 2.5 * ref["fvu"], \
                f"{fn}: FVU {r.fvu_or_rate:.3f} > 2.5 x {ref['fvu']}"
            assert 0.6 * ref["minterms"] <= r.n_minterms <= 1.4 * ref["minterms"], \
                f"{fn}: {r.n_minterms} min-terms outside +-40% of {ref['minterms']}"
            assert r.runtime_ms < 60_000, f"{fn}: {r.runtime_ms:.0f} ms over budget"
            print(f"  {fn}: FVU {r.fvu_or_rate:.3f} (ref {ref['fvu']}), "
                  f"{r.n_minterms} min-terms (ref {ref['minterms']})")


def test_criterion_2_growing_training_sets():
    with criterion(2, "growing-training-set trend"):
        sizes = (225, 400, 700)
        for fn in ("g1", "g3", "g5"):
            monotone = 0
            for seed in range(10):
                rows = [run_modeling(paper_modeling_config(fn, n_train=n, seed=seed))
                        for n in sizes]
                fvus = [r.fvu_or_rate for r in rows]
                counts = [r.n_minterms for r in rows]
                if fvus[0] >= fvus[1] >= fvus[2]:
                    monotone += 1
                assert counts[2] / counts[0] < 700 / 225, \
                    f"{fn} seed {seed}: min-term growth {counts[2]}/{counts[0]} not sublinear"
            assert monotone >= 8, f"{fn}: FVU non-increasing for only {monotone}/10 seeds"
            print(f"  {fn}: monotone FVU for {monotone}/10 seeds")


def test_criterion_3_classification(seed1_suite):
    with criterion(3, "classification"):
        floors = {1: 95.0, 2: 95.0, 3: 95.0, 4: 90.0}
        seed1_minterms = {1: 16, 2: 14, 3: 23, 4: 42}
        for ds, floor in floors.items():
            r = seed1_suite["classification"][f"set{ds}"]
            assert r.n_minterms == seed1_minterms[ds], \
                f"set {ds}: {r.n_minterms} min-terms at seed 1, expected {seed1_minterms[ds]}"
            assert r.fvu_or_rate >= floor, \
                f"set {ds}: rate {r.fvu_or_rate:.2f}% below {floor}%"
            assert r.n_minterms < 0.35 * r.n_train, \
                f"set {ds}: {r.n_minterms} min-terms not under 35% of {r.n_train}"
            print(f"  set {ds}: {r.fvu_or_rate:.2f}% with {r.n_minterms} min-terms")


def test_criterion_4_noise_tolerance(seed1_suite):
    with criterion(4, "noise tolerance"):
        for fn in TABLE1:
            r = seed1_suite["noise"][fn]
            assert r.fvu_or_rate < 1.0, f"{fn}: noisy FVU {r.fvu_or_rate:.3f} >= 1"
            print(f"  {fn}: noisy FVU {r.fvu_or_rate:.3f} (ref {r.paper_reference})")


def test_criterion_5_fault_tolerance(seed1_suite):
    with criterion(5, "fault tolerance"):
        for fn in TABLE1:
            clean = seed1_suite["table1"][fn]
            r = seed1_suite["fault"][fn]
            limit = 0.8 if fn == "g3" else 0.5
            assert r.fvu_or_rate < limit, f"{fn}: faulted FVU {r.fvu_or_rate:.3f} >= {limit}"
            assert r.n_minterms >= clean.n_minterms, \
                f"{fn}: {r.n_minterms} min-terms < fault-free {clean.n_minterms}"
            print(f"  {fn}: faulted FVU {r.fvu_or_rate:.3f}, "
                  f"{r.n_minterms} vs {clean.n_minterms} min-terms")


def _oracle_forward(state, inputs):
    # straight-line nested loops, independent of the library internals
    hidden = []
    n_groups = len(state.config.groups)
    for i in range(state.n_minterms):
        total = 0.0
        for g in range(n_groups):
            row = state.w_in(g)[i]
            x = inputs[g].values
            dot = sum(float(a) * float(b) for a, b in zip(row, x))
            nr = math.sqrt(sum(float(a) ** 2 for a in row))
            nx = math.sqrt(sum(float(b) ** 2 for b in x))
            total += dot / (nr * nx) if nr > 0 and nx > 0 else 0.0
        hidden.append((total / n_groups) ** state.config.p)
    out = [sum(float(state.w_out[i, j]) * hidden[j] for j in range(state.n_minterms))
           for i in range(state.config.output_universe.count)]
    return np.array(hidden), np.array(out)


def _tiny_config(nx=5, ny=5, nz=4, p=7, threshold=0.1):
    ux = universe_from_count(0, 1, nx)
    uy = universe_from_count(0, 1, ny)
    uz = universe_from_count(0, 1, nz)
    return NetworkConfig(groups=(InputGroup("x", ux, 0.3), InputGroup("y", uy, 0.3)),
                         output_universe=uz, p=p, alpha=5e-4,
                         novelty_threshold=threshold, output_half_support=0.0)


def test_criterion_6_property_suite():
    with criterion(6, "property suite"):
        t0 = time.perf_counter()

        # idempotent retraining: a just-learned sample is skipped untouched
        cfg = _tiny_config(threshold=0.2)
        state = NetworkState(cfg)
        inputs = _sample(state, 0.5, 0.5)
        assert train_one(state, inputs, target_crisp=0.5).add_indices == [0]
        before = state.copy()
        assert train_one(state, inputs, target_crisp=0.5).add_indices == []
        assert states_equal(before, state)

        # 10,000 random training steps: non-negativity and growth bound
        cfg = _tiny_config(threshold=0.1)
        state = NetworkState(cfg)
        rng = np.random.default_rng(123)
        n_steps = 10_000
        crisps = rng.uniform(0, 1, size=(n_steps, 3))
        network.train_matrix(state, state.fuzzify(crisps[:, :2]), crisps[:, 2])
        assert state.n_minterms <= n_steps
        assert (state.w_out >= 0).all()
        assert all((state.w_in(g) >= 0).all() for g in range(2))

        # centroid scale invariance on raw activations
        uz = universe_from_count(0, 1, 7)
        vals = rng.uniform(0, 1, 7) + 1e-6
        base = float(vals @ uz.grid()) / float(vals.sum())
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = float((c * vals) @ uz.grid()) / float((c * vals).sum())
            assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))

        # forward equals the brute-force oracle on 100 random small instances
        for trial in range(100):
            trng = np.random.default_rng(1000 + trial)
            nx, ny, nz = (int(v) for v in trng.integers(2, 6, size=3))
            tc = _tiny_config(nx=nx, ny=ny, nz=nz, p=int(trng.integers(1, 9)),
                              threshold=1e-9)
            ts = NetworkState(tc)
            for _ in range(int(trng.integers(1, 5))):
                sample = [fuzzy.MembershipVector(tc.groups[0].universe, _nz(trng, nx)),
                          fuzzy.MembershipVector(tc.groups[1].universe, _nz(trng, ny))]
                train_one(ts, sample, target_crisp=float(trng.uniform(0, 1)))
            probe = [fuzzy.MembershipVector(tc.groups[0].universe, _nz(trng, nx)),
                     fuzzy.MembershipVector(tc.groups[1].universe, _nz(trng, ny))]
            hidden, out = forward_batch(ts, [m.values[None] for m in probe])
            o_hidden, o_out = _oracle_forward(ts, probe)
            np.testing.assert_allclose(hidden[0], o_hidden, rtol=1e-12, atol=0)
            np.testing.assert_allclose(out[0], o_out, rtol=1e-12, atol=0)

        # argmax tie-break determinism
        cfg = _tiny_config(nz=2, threshold=0.45)
        state = NetworkState(cfg)
        train_one(state, _sample(state, 0.5, 0.5), target_crisp=0.0)
        state._w_out[:, 0] = [0.5, 0.5]
        probe = state.fuzzify(np.array([[0.5, 0.5]]))
        assert all(network.classify_batch(state, probe).tolist() == [0] for _ in range(5))

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"property suite took {elapsed:.1f} s"
        print(f"  completed in {elapsed:.1f} s")


def _sample(state, x, y):
    """The fuzzified point (x, y) as the membership vectors train_one takes."""
    mats = state.fuzzify(np.array([[x, y]]))
    return [fuzzy.MembershipVector(g.universe, X[0]) for g, X in zip(state.config.groups, mats)]


def _nz(rng, n):
    v = rng.uniform(0, 1, int(n))
    if not v.any():
        v[0] = 1.0
    return v


def test_criterion_7_crossbar_equivalence():
    with criterion(7, "crossbar equivalence"):
        state = experiments.rebuild_trained_state(paper_modeling_config("g1"))
        cb1, cb2, mapping = map_network(state)

        pts = np.random.default_rng(4242).uniform(0, 1, size=(100, 2))
        mats = [triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(state.config.groups)]
        _, ideal = forward_batch(state, mats)
        got = crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats)
        # per-output 5% relative; exact zeros compared with a scale-anchored
        # absolute floor (1e-9 of the largest output)
        atol = 1e-9 * np.abs(ideal).max()
        assert np.isclose(got, ideal, rtol=0.05, atol=atol).all()
        worst = np.abs(got - ideal) / np.maximum(np.abs(ideal), atol)
        print(f"  worst per-output deviation: {worst.max():.2e}")

        # sub-threshold reads are non-destructive, bit for bit
        before1, before2 = cb1.x.copy(), cb2.x.copy()
        crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats)
        assert np.array_equal(before1, cb1.x) and np.array_equal(before2, cb2.x)

        # write sweep: exactly zero at and below threshold, non-decreasing above
        params = MemristorParams()
        volts, dw = delta_weight_sweep(params)
        below = volts <= params.v_threshold
        assert np.all(dw[below] == 0.0)
        assert np.all(np.diff(dw[~below]) >= 0.0)


def test_criterion_8_integrator_convergence():
    with criterion(8, "device integrator convergence"):
        params = MemristorParams()
        fine = MemristorParams(dt=params.dt / 2)
        volts = np.linspace(0.0, 2.0 * params.v_threshold, 81)
        _, dw_a = delta_weight_sweep(params, voltages=volts)
        _, dw_b = delta_weight_sweep(fine, voltages=volts)
        xa, xb = _x_from_dw(dw_a, params), _x_from_dw(dw_b, params)
        worst = np.abs(xa - xb).max()
        assert worst < 1e-3, f"dt halving moved x by {worst:.2e}"
        # both step sizes track the closed-form ion-drift solution
        exact = ion_drift_x(params, volts, crossbar.HEBBIAN_PULSE_SECONDS)
        off = max(np.abs(xa - exact).max(), np.abs(xb - exact).max())
        assert off < 1e-5, f"Euler states are {off:.2e} from the closed form"
        print(f"  max |x(dt) - x(dt/2)| across sweep: {worst:.2e}; "
              f"max distance to the closed form: {off:.2e}")


def _x_from_dw(dw, params):
    w = dw + 1.0                      # r_f = r_off so the floor weight is 1
    m = params.r_off / w
    return (params.r_off - m) / (params.r_off - params.r_on)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "seeded CLI determinism"):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["model", "--fn", "g1", "--seed", "7",
                           "--out-dir", str(out)])
            assert rc == 0
            outputs.append((out / "model_g1.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rc = cli.main(["classify", "--dataset", "1", "--seed", "7",
                       "--out-dir", str(tmp_path / "c1")])
        rc2 = cli.main(["classify", "--dataset", "1", "--seed", "7",
                        "--out-dir", str(tmp_path / "c2")])
        assert rc == 0 and rc2 == 0
        assert (tmp_path / "c1" / "classify_set1.csv").read_bytes() == \
               (tmp_path / "c2" / "classify_set1.csv").read_bytes()
        print("  repeated seeded commands emit byte-identical reports")
