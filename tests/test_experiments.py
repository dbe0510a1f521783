import dataclasses

import numpy as np
import pytest

from neurofuzzy import experiments
from neurofuzzy.crossbar import MemristorParams
from neurofuzzy.errors import ConstantActual, LengthMismatch, UnknownDatasetId, UnreadField
from neurofuzzy.experiments import (
    ExperimentConfig,
    fvu,
    paper_classification_config,
    paper_modeling_config,
    run_classification,
    run_modeling,
)


class TestFvu:
    def test_perfect_prediction(self):
        assert fvu([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_prediction_is_one(self):
        actual = np.array([0.0, 1.0, 2.0, 5.0])
        pred = np.full(4, actual.mean())
        assert fvu(pred, actual) == pytest.approx(1.0)

    def test_worked_example(self):
        assert fvu([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(0.5)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            fvu([1.0], [1.0])
        with pytest.raises(LengthMismatch):
            fvu([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantActual):
            fvu([1.0, 2.0], [3.0, 3.0])


# small, fast configs: trimmed test set, same training protocol
def quick(fn="g1", **kw):
    kw.setdefault("n_test", 400)
    return paper_modeling_config(fn, **kw)


class TestRunModeling:
    def test_report_fields(self):
        r = run_modeling(quick())
        assert r.cfg == quick()
        assert (r.cfg.noise_variance, r.cfg.fault_fraction) == (0.0, 0.0)   # a modeling run
        assert r.csv_row()[0] == "g1"
        assert r.csv_row()[7:10] == [100, 100, 116]
        assert r.csv_row()[6] == repr(0.2) and r.cfg.net.novelty_threshold == 0.2
        assert r.paper_reference == 0.067
        assert r.n_minterms > 0
        assert r.fvu_or_rate >= 0.0
        assert r.runtime_ms is not None

    def test_single_sample_degenerate_run(self):
        r = run_modeling(quick(n_train=1))
        assert r.n_minterms == 1
        assert np.isfinite(r.fvu_or_rate)

    def test_deterministic(self):
        a = run_modeling(quick(seed=5))
        b = run_modeling(quick(seed=5))
        assert a.fvu_or_rate == b.fvu_or_rate
        assert a.n_minterms == b.n_minterms

    def test_more_data_improves_g1(self):
        small = run_modeling(quick(n_train=225, n_test=4000))
        big = run_modeling(quick(n_train=700, n_test=4000))
        assert big.fvu_or_rate <= small.fvu_or_rate
        assert big.n_minterms / small.n_minterms < 700 / 225

    def test_threshold_monotone_minterm_count(self):
        loose = run_modeling(quick(threshold=0.4))
        tight = run_modeling(quick(threshold=0.05))
        assert tight.n_minterms >= loose.n_minterms

    def test_crossbar_backend_close_to_ideal(self):
        ideal = run_modeling(quick())
        analog = run_modeling(quick(backend="crossbar"))
        assert analog.n_minterms == ideal.n_minterms
        assert analog.fvu_or_rate == pytest.approx(ideal.fvu_or_rate, rel=1e-6)


class TestRunNoise:
    def test_zero_variance_reduces_to_modeling(self):
        a = run_modeling(quick(seed=3))
        b = run_modeling(quick(seed=3, noise_variance=0.0))
        assert a.fvu_or_rate == b.fvu_or_rate
        assert a.n_minterms == b.n_minterms

    def test_noise_degrades_but_bounded(self):
        clean = run_modeling(quick(seed=2, n_test=4000))
        noisy = run_modeling(quick(seed=2, n_test=4000, noise_variance=0.01))
        assert noisy.cfg.noise_variance == 0.01 and noisy.cfg.fault_fraction == 0.0
        assert noisy.paper_reference == 0.281
        assert noisy.fvu_or_rate > clean.fvu_or_rate
        assert noisy.fvu_or_rate < 1.0


class TestRunFault:
    def test_zero_fraction_bit_identical_to_modeling(self):
        a = run_modeling(quick(seed=4))
        b = run_modeling(quick(seed=4, fault_fraction=0.0))
        assert a.fvu_or_rate == b.fvu_or_rate
        assert a.n_minterms == b.n_minterms

    def test_twenty_percent(self):
        ff = run_modeling(quick(seed=4, n_test=2000))
        r = run_modeling(quick(seed=4, n_test=2000, fault_fraction=0.2))
        assert r.cfg.fault_fraction == 0.2 and r.cfg.noise_variance == 0.0
        assert r.paper_reference == 0.212
        assert r.n_minterms >= ff.n_minterms
        assert r.fvu_or_rate < 0.5

    def test_all_faulted_completes_and_flags(self):
        r = run_modeling(quick(n_train=40, n_test=200, fault_fraction=1.0))
        assert r.cfg.fault_fraction >= 1.0
        assert np.isfinite(r.fvu_or_rate)

    def test_fault_seed_controls_draw(self):
        a = run_modeling(quick(seed=4, fault_fraction=0.2, fault_seed=1))
        b = run_modeling(quick(seed=4, fault_fraction=0.2, fault_seed=1))
        c = run_modeling(quick(seed=4, fault_fraction=0.2, fault_seed=2))
        assert a.fvu_or_rate == b.fvu_or_rate
        assert a.fvu_or_rate != c.fvu_or_rate


class TestRunClassification:
    def test_small_blob_run(self):
        cfg = paper_classification_config(1, n_train=60, n_test=300)
        r = run_classification(cfg)
        assert r.cfg == cfg and r.cfg.dataset == 1
        assert r.cfg.net.output_universe.count == 2 and r.csv_row()[9] == 2
        assert r.fvu_or_rate >= 90.0
        assert r.per_class_counts == (150, 150)

    def test_one_point_per_class_recovers_archetypes(self):
        # training set of two far-apart points: both classified correctly
        from neurofuzzy import network
        from neurofuzzy.fuzzy import universe_from_count
        from neurofuzzy.network import InputGroup, NetworkConfig, NetworkState

        ux = universe_from_count(0, 1, 50)
        cfg = NetworkConfig(
            groups=(InputGroup("x", ux, 0.05), InputGroup("y", ux, 0.05)),
            output_universe=universe_from_count(0, 1, 2),
            p=7, alpha=5e-4, novelty_threshold=0.35, output_half_support=0.0,
        )
        state = NetworkState(cfg)
        points = np.array([[0.2, 0.2], [0.8, 0.8]])
        network.train_matrix(state, state.fuzzify(points), np.array([0.0, 1.0]))
        assert state.n_minterms == 2
        assert network.classify_batch(state, state.fuzzify(points)).tolist() == [0, 1]

    def test_stuck_crossbar_cells_change_only_crossbar_labels(self, monkeypatch):
        # pristine crossbars agree with the ideal network; cb2's class-1
        # output line stuck at R_on draws every fired point to class 1
        from neurofuzzy import crossbar

        cfg = paper_classification_config(3, n_train=200, n_test=400)
        on_crossbar = dataclasses.replace(cfg, backend="crossbar")
        ideal = run_classification(cfg).fvu_or_rate
        assert run_classification(on_crossbar).fvu_or_rate == ideal

        real = crossbar.map_network

        def stuck_map(state, params, **kw):
            cb2 = crossbar.Crossbar(state.config.output_universe.count, state.n_minterms, params)
            cb2.fault_mask[1] = True
            cb2.x[1] = 1.0
            return real(state, params, cb2=cb2, **kw)

        monkeypatch.setattr(crossbar, "map_network", stuck_map)
        stuck = run_classification(on_crossbar)
        assert stuck.fvu_or_rate < ideal - 25.0
        assert run_classification(cfg).fvu_or_rate == ideal

    @pytest.mark.parametrize("backend", ["ideal", "crossbar"])
    def test_labels_are_read_out_chunk_by_chunk(self, monkeypatch, backend):
        # every scoring call of the run takes a readout, so no (B, nz) outputs are built
        from neurofuzzy import crossbar, fuzzy

        readouts, real = [], fuzzy.score_batch

        def score_batch(*args, readout=None, **kwargs):
            readouts.append(readout)
            return real(*args, readout=readout, **kwargs)

        monkeypatch.setattr(fuzzy, "score_batch", score_batch)
        monkeypatch.setattr(crossbar, "score_batch", score_batch)
        cfg = paper_classification_config(3, n_train=200, n_test=400, backend=backend)
        assert run_classification(cfg).fvu_or_rate > 50.0
        assert len(readouts) == 1 and readouts[0] is not None

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDatasetId):
            run_classification(dataclasses.replace(
                paper_classification_config(1), dataset=7))


class TestSuiteJobs:
    def test_row_counts(self):
        jobs = experiments.SUITE
        assert len(jobs["table1"]) == 5
        assert len(jobs["table3"]) == 3
        assert len(jobs["classification"]) == 4
        assert len(jobs["noise"]) == 5
        assert len(jobs["fault"]) == 5

    def test_csv_row_schema(self):
        r = run_modeling(quick())
        row = r.csv_row()
        assert len(row) == len(experiments.REPORT_COLUMNS)
        assert row[-1] == ""                       # runtime blank by default
        assert r.csv_row(with_runtime=True)[-1] != ""

    def test_a_report_stores_no_value_its_config_holds(self):
        report = {f.name for f in dataclasses.fields(experiments.ExperimentReport)}
        config = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert "cfg" in report and not report & config

    def test_csv_row_names_the_run_from_its_config(self):
        cfg = quick(seed=3, n_train=60, p=5, alpha=1e-3, threshold=0.15, nx=20, ny=30, nz=40)
        r = run_modeling(cfg)
        assert r.csv_row()[:10] == ["g1", 60, 400, 3, 5, "0.001", "0.15", 20, 30, 40]
        assert r.csv_row()[10:13] == [r.n_minterms, repr(r.fvu_or_rate), ""]
        row = run_classification(paper_classification_config(2, n_train=60, n_test=200)).csv_row()
        assert row[:3] + row[6:10] + row[12:] == ["set2", 60, 200, "0.35", 90, 90, 2, "99.36", ""]


class TestTrainingInvariants:
    def test_skips_respect_threshold_at_presentation(self):
        # replay a real run sample by sample: every skip was justified by the
        # novelty error measured at that moment
        from neurofuzzy import network
        from neurofuzzy.benchmarks import eval_benchmark, gen_uniform_samples
        from neurofuzzy.experiments import _network_config
        from neurofuzzy.fuzzy import MembershipVector, triangular_matrix
        from neurofuzzy.network import NetworkState

        cfg = quick(seed=6)
        net_cfg = _network_config(cfg)
        pts = gen_uniform_samples(cfg.n_train, cfg.seed)
        targets = np.clip(eval_benchmark("g1", pts[:, 0], pts[:, 1]),
                          net_cfg.output_universe.lo, net_cfg.output_universe.hi)
        mats = [triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(net_cfg.groups)]
        state = NetworkState(net_cfg)
        n_skipped = 0
        for k in range(cfg.n_train):
            sample = [MembershipVector(g.universe, mats[i][k])
                      for i, g in enumerate(net_cfg.groups)]
            stats = network.train_one(state, sample, target_crisp=targets[k])
            if not stats.add_indices:
                n_skipped += 1
                assert stats.errors[0] < net_cfg.novelty_threshold
            else:
                assert not np.isfinite(stats.errors[0]) or \
                    stats.errors[0] >= net_cfg.novelty_threshold
        assert n_skipped > 0
        assert state.n_minterms + n_skipped == cfg.n_train


class TestConfigValidation:
    @pytest.mark.parametrize("run", [
        lambda: run_modeling(ExperimentConfig(function="g9")),
        lambda: experiments.rebuild_trained_state(ExperimentConfig(dataset=9)),
        lambda: paper_modeling_config("g9"),
        lambda: paper_classification_config(9),
    ], ids=["run_modeling", "rebuild_trained_state", "paper_modeling", "paper_classification"])
    def test_unknown_target_raises_unknown_dataset_id(self, run):
        with pytest.raises(UnknownDatasetId):
            run()

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            ExperimentConfig(function="g1", dataset=1)
        with pytest.raises(ValueError):
            ExperimentConfig()

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            ExperimentConfig(function="g1", backend="quantum")

    @pytest.mark.parametrize("variance", [-0.01, np.nan, np.inf])
    def test_bad_noise_variance(self, variance):
        with pytest.raises(ValueError, match="noise variance"):
            ExperimentConfig(function="g1", noise_variance=variance)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            ExperimentConfig(function="g1", fault_fraction=1.5)

    @pytest.mark.parametrize("key", ["seed", "test_seed", "fault_seed"])
    def test_negative_seed(self, key):
        # numpy's generators refuse a negative seed mid-run
        with pytest.raises(ValueError, match=f"{key} must be >= 0, got -1"):
            ExperimentConfig(function="g1", **{key: -1})

    @pytest.mark.parametrize("target,key", [
        ({"dataset": 1}, "n_train"), ({"dataset": 1}, "n_test"), ({"function": "g1"}, "n_test"),
        ({"dataset": 1}, "nx"), ({"function": "g1"}, "ny"), ({"function": "g1"}, "nz"),
    ], ids=["dataset-n_train", "dataset-n_test", "function-n_test", "dataset-nx", "function-ny",
            "function-nz"])
    def test_size_the_generators_cannot_serve(self, target, key):
        # a dataset draws both classes, an FVU needs two test points, a universe two points
        with pytest.raises(ValueError, match=f"{key} must be >= 2, got 1"):
            ExperimentConfig(**target, **{key: 1})

    @pytest.mark.parametrize("key,value", [
        ("nx", 2.5), ("ny", 10.5), ("nz", 7.5), ("n_train", 30.5), ("n_test", 50.5),
        ("seed", 1.5), ("test_seed", 977.5), ("fault_seed", 3.5), ("p", 7.5)])
    def test_a_fractional_size_seed_or_exponent_raises_naming_the_field(self, key, value):
        # each failed only once the run started: EmptyRange, TypeError or ValueError
        with pytest.raises(ValueError, match=f"^{key} must be a whole number, got {value}$"):
            ExperimentConfig(function="g1", **{key: value})

    @pytest.mark.parametrize("key,net_key,value", [
        ("alpha", "alpha", -1e-3), ("alpha", "alpha", np.nan), ("alpha", "alpha", np.inf),
        ("threshold", "novelty_threshold", 0.0), ("threshold", "novelty_threshold", -0.5),
        ("threshold", "novelty_threshold", np.nan),
        ("output_hs_mult", "output_half_support", -1.0),
        ("output_hs_mult", "output_half_support", np.inf)])
    def test_the_network_checks_raise_at_construction(self, key, net_key, value):
        # NetworkConfig's own message, from the constructor alone
        with pytest.raises(ValueError) as got:
            ExperimentConfig(function="g1", **{key: value})
        net = ExperimentConfig(function="g1").net
        with pytest.raises(ValueError) as want:
            dataclasses.replace(net, **{net_key: value * net.output_universe.resolution
                                        if key == "output_hs_mult" else value})
        assert str(got.value) == str(want.value)

    def test_whole_floats_are_stored_as_ints_and_run_as_them(self):
        whole = {"nx": 10, "ny": 12, "nz": 9, "n_train": 40, "n_test": 60, "seed": 2,
                 "test_seed": 5, "fault_seed": 3, "p": 7}
        cfg = ExperimentConfig(function="g1", **{k: float(v) for k, v in whole.items()})
        assert cfg == ExperimentConfig(function="g1", **whole)
        assert all(type(getattr(cfg, k)) is int for k in whole)
        got, want = run_modeling(cfg), run_modeling(ExperimentConfig(function="g1", **whole))
        assert (got.n_minterms, got.fvu_or_rate) == (want.n_minterms, want.fvu_or_rate)

    def test_fields_a_run_never_reads_raise_naming_the_first(self):
        with pytest.raises(ValueError, match="test_seed"):
            run_classification(paper_classification_config(
                1, n_train=60, n_test=200, noise_variance=0.5, test_seed=5, nz=7,
                output_hs_mult=9.0))
        with pytest.raises(ValueError, match="r_f"):
            run_modeling(paper_modeling_config("g1", n_train=60, n_test=200, scale_in=3.0,
                                               device=MemristorParams(r_f=5.0)))

    # given at the value a function's run would read, a dataset's still never reads it
    @pytest.mark.parametrize("key,value", [("test_seed", 977), ("nz", 7),
                                           ("output_hs_mult", 3.0), ("noise_variance", 0.0)])
    def test_a_dataset_config_rejects_the_function_fields(self, key, value):
        with pytest.raises(UnreadField, match=f"a dataset run does not read {key}") as info:
            paper_classification_config(1, **{key: value})
        assert info.value.field == key

    @pytest.mark.parametrize("key,setup", [
        ("v_threshold", {"device": MemristorParams(v_threshold=0.8)}),
        ("r_f", {"device": MemristorParams(r_f=5.0)}),
        ("scale_in", {"scale_in": 3.0}), ("scale_out", {"scale_out": 3.0})])
    @pytest.mark.parametrize("make", [lambda **kw: paper_modeling_config("g1", **kw),
                                      lambda **kw: paper_classification_config(1, **kw)],
                             ids=["function", "dataset"])
    def test_an_ideal_config_rejects_the_crossbar_read_setup(self, make, key, setup):
        with pytest.raises(UnreadField, match=f"the ideal backend does not read {key}") as info:
            make(**setup)
        assert info.value.field == key
        assert make(backend="crossbar", **setup).backend == "crossbar"

    def test_an_ideal_config_takes_the_resistances_of_its_fault_plan(self):
        device = MemristorParams(r_on=200.0, r_off=8000.0)
        assert paper_modeling_config("g1", device=device, fault_fraction=0.1).device == device

    def test_a_function_config_holds_the_values_its_run_reads(self):
        cfg = paper_modeling_config("g1")
        assert (cfg.test_seed, cfg.noise_variance, cfg.output_hs_mult, cfg.nz) == \
            (experiments.DEFAULT_TEST_SEED, 0.0, 3.0, None)
        assert dataclasses.replace(cfg, noise_variance=0.01).test_seed == 977

    def test_a_dataset_config_survives_replace(self):
        cfg = dataclasses.replace(paper_classification_config(2), n_train=50, backend="crossbar")
        assert (cfg.n_train, cfg.backend) == (50, "crossbar")
        assert (cfg.test_seed, cfg.noise_variance, cfg.output_hs_mult, cfg.nz) == (None,) * 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("key", ["r_f", "scale_in", "scale_out"])
    def test_bad_crossbar_setup(self, key, value):
        # a mapping with such a value reads every test point as unactivated
        with pytest.raises(ValueError, match=f"{key} must be finite and > 0, got {value}"):
            setup = {"device": MemristorParams(r_f=value)} if key == "r_f" else {key: value}
            paper_modeling_config("g1", backend="crossbar", **setup)
