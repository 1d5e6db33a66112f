"""The randomized invariant sweep and its failure-replay machinery."""

import hashlib
import json

import pytest
from hypothesis import given, settings

import twolayer as tl
from twolayer import (
    BipartiteGraph,
    CheckStats,
    FuzzConfig,
    GraphError,
    TwoLayerDrawing,
    decompose,
    fuzz,
)

from conftest import drawings, record_bag_builds


def test_config_validation():
    with pytest.raises(GraphError):
        FuzzConfig(trials=-1, seed=0)
    with pytest.raises(GraphError):
        FuzzConfig(trials=1, seed=0, checks=("decompose", "nope"))


@pytest.mark.parametrize(
    "field",
    [
        {"invert_check": "nosuch"},
        {"p_range": (0.9, 0.1)},
        {"p_range": (-0.5, 0.5)},
        {"p_range": (0.5, 1.5)},
        {"na_max": -1},
        {"nb_max": -1},
    ],
)
def test_config_rejects_out_of_domain_fields(field):
    """Caught when the config is built, not mid-sweep or never."""
    with pytest.raises(GraphError):
        FuzzConfig(trials=1, seed=0, **field)


def test_zero_trials():
    rep = tl.run_fuzz(FuzzConfig(trials=0, seed=0))
    assert rep.ok
    assert all(s.run == 0 and s.skipped == 0 for s in rep.stats.values())


def test_hundred_trials_all_clean():
    rep = tl.run_fuzz(FuzzConfig(trials=100, seed=7))
    assert rep.ok and rep.failures == ()
    for name in tl.ALL_CHECKS:
        stats = rep.stats[name]
        assert stats.failed == 0
        assert stats.run + stats.skipped == 100
        assert stats.passed == stats.run
    # determinism golden for this seed: which trials each check skips is fixed
    assert rep.stats["layout"].skipped == 1
    assert rep.stats["counting"].skipped == 15
    assert rep.stats["per-edge"].skipped == 1


def test_layout_and_per_edge_skip_the_same_trials(monkeypatch):
    """Both checks read one exact pathwidth under one vertex cap, so neither
    skips a trial the other runs."""
    skipped = {"layout": [], "per-edge": []}
    real = fuzz._run_check

    def recorded(check, trial):
        result = real(check, trial)
        skipped[check].append(result[0] is None)
        return result

    monkeypatch.setattr(fuzz, "_run_check", recorded)
    rep = tl.run_fuzz(FuzzConfig(trials=300, seed=7, checks=("layout", "per-edge")))
    assert rep.ok
    assert len(skipped["layout"]) == 300
    assert skipped["layout"] == skipped["per-edge"]
    assert 0 < sum(skipped["layout"]) < 300


def test_layout_check_fails_on_a_wrong_placement(monkeypatch):
    """The layout check compares the certificate's placement map with the
    first bags of the staged decomposition, not only its measured bounds."""
    real = fuzz.layout_decomposition

    def shifted(graph, pd):
        drawing, cert = real(graph, pd)
        ell = {v: i + 1 for v, i in cert.ell.items()}
        altered = tl.LayoutCertificate(
            k=cert.k,
            ell=ell,
            max_crossing=cert.max_crossing,
            max_crossing_ok=cert.max_crossing_ok,
            st_ok=cert.st_ok,
            edge_cap=cert.edge_cap,
        )
        return drawing, altered

    monkeypatch.setattr(fuzz, "layout_decomposition", shifted)
    rep = tl.run_fuzz(FuzzConfig(trials=20, seed=7, checks=("layout",)))
    stats = rep.stats["layout"]
    assert stats.run > 0 and stats.failed == stats.run
    assert all(d.detail.endswith("ell is not the staged first bags") for d in rep.failures)


def test_layout_check_places_by_the_vertex_order(monkeypatch):
    """The layout check also compares the placement map with the vertex
    order's positions, which do not come from the decomposition's intervals.
    With every interval the order builds moved one bag later, validation
    still passes and the staged comparison agrees with the moved placement,
    so only the order comparison fails."""

    real = tl.PathDecomposition._from_intervals

    def moved(span, count):
        return real({v: (lo + 1, hi + 1) for v, (lo, hi) in span.items()}, count + 1)

    monkeypatch.setattr(tl.PathDecomposition, "_from_intervals", staticmethod(moved))
    rep = tl.run_fuzz(FuzzConfig(trials=20, seed=7, checks=("layout",)))
    stats = rep.stats["layout"]
    assert stats.run > 0 and stats.failed == stats.run
    assert all(
        d.detail.endswith("st_ok=True ell is not the vertex order's positions")
        for d in rep.failures
    )


def test_fuzz_is_deterministic():
    a = tl.run_fuzz(FuzzConfig(trials=40, seed=3))
    b = tl.run_fuzz(FuzzConfig(trials=40, seed=3))
    assert tl.report_to_json(a) == tl.report_to_json(b)


def test_check_subset_only_runs_selected():
    rep = tl.run_fuzz(FuzzConfig(trials=10, seed=1, checks=("decompose",)))
    assert set(rep.stats) == {"decompose"}


def test_inverted_check_produces_replayable_failures():
    config = FuzzConfig(trials=20, seed=7, invert_check="decompose")
    rep = tl.run_fuzz(config)
    assert not rep.ok
    assert len(rep.failures) == 20
    dump = rep.failures[0]
    assert dump.check == "decompose" and dump.inverted
    # same config reproduces the identical dump; honest config sees no failure
    assert tl.replay_failure(dump, config) == dump
    assert tl.replay_failure(dump, FuzzConfig(trials=20, seed=7)) is None


def test_report_json_shape():
    rep = tl.run_fuzz(FuzzConfig(trials=5, seed=2))
    payload = json.loads(tl.report_to_json(rep))
    assert set(payload) == {"trials", "seed", "checks", "failures"}
    assert payload["trials"] == 5 and payload["seed"] == 2
    assert set(payload["checks"]) == set(tl.ALL_CHECKS)
    for stats in payload["checks"].values():
        assert set(stats) == {"run", "passed", "failed", "skipped"}


def test_failure_dump_round_trips_drawing():
    config = FuzzConfig(trials=5, seed=11, invert_check="layout")
    rep = tl.run_fuzz(config)
    for dump in rep.failures:
        d = tl.drawing_from_json(dump.drawing_json)
        assert len(d.graph.vertices) <= fuzz.EXACT_VERTEX_CAP


def test_drop_isolated_a():
    g = tl.BipartiteGraph(("a1", "a2"), ("b1",), (("a1", "b1"),))
    d = tl.TwoLayerDrawing(g, ("a2", "a1"), ("b1",))
    out = tl.drop_isolated_a(d)
    assert out.graph.a == ("a1",)
    assert out.graph.b == ("b1",)  # isolated B vertices stay
    assert out.order_a == ("a1",)
    assert out.graph.edges == (("a1", "b1"),)


@pytest.mark.parametrize(
    "trials, invert, digest",
    [
        (100, None, "a4657aae939a6f639ce20c96a06ec986c45e3a0ed1a92df11e1300cfbf78dd65"),
        (20, "decompose", "980bf91250d4fd25fe42303d0f28897b1f17ee3f5e4b317da03cdf8fe666131c"),
        (20, "audit", "4831b1ff9d21f4b5fbc21ec9197640af413baf75931585edfcbb32cbeb6960bd"),
        (20, "per-edge", "0e41ec54df7e9265a2e1076a0a5b9e18f54b915def685aa57a9fb157dfc2a9b1"),
    ],
)
def test_report_bytes_are_pinned(trials, invert, digest):
    """Report bytes, the dumps' certificate JSON included, are pinned:
    sharing one decomposition and one exact pathwidth per trial, and
    building certificate JSON only for dumps, must not change them."""
    rep = tl.run_fuzz(FuzzConfig(trials=trials, seed=7, invert_check=invert))
    assert hashlib.sha256(tl.report_to_json(rep).encode()).hexdigest() == digest


def test_each_trial_decomposes_and_solves_pathwidth_once(monkeypatch):
    calls = {"decompose_drawing": 0, "pathwidth_exact": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(fuzz, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(fuzz, name, counted)
    solved = 0
    for seed in range(40):
        config = FuzzConfig(trials=1, seed=seed)
        n = len(fuzz._trial_drawing(config, 0)[1].graph.vertices)
        calls.update(decompose_drawing=0, pathwidth_exact=0)
        assert tl.run_fuzz(config).ok
        exact = int(0 < n <= fuzz.EXACT_VERTEX_CAP)
        assert calls == {"decompose_drawing": 1, "pathwidth_exact": exact}, seed
        solved += exact
    assert solved > 10  # layout and per-edge read one pathwidth on these trials


def test_counting_trial_finds_the_max_crossing_set_once(monkeypatch):
    """The counting check takes k from the trial's chain cover and ell from
    the rail table, so the one max_crossing_set call and the one
    maximum_noncrossing_matching call are check_counting_bound's tests of
    them."""
    from twolayer import analysis

    calls = {"max_crossing_set": 0, "maximum_noncrossing_matching": 0}
    for name in calls:
        def counted(d, _name=name, _real=getattr(analysis, name)):
            calls[_name] += 1
            return _real(d)

        monkeypatch.setattr(analysis, name, counted)
        monkeypatch.setattr(fuzz, name, counted, raising=False)
    g = BipartiteGraph(("a1", "a2", "a3"), ("b1", "b2"),
                       (("a1", "b2"), ("a2", "b1"), ("a3", "b1"), ("a3", "b2")))
    drawing = TwoLayerDrawing(g, g.a, g.b)
    verdict, detail, _ = fuzz._run_check("counting", fuzz._Trial(drawing))
    assert verdict, detail
    assert calls == {"max_crossing_set": 1, "maximum_noncrossing_matching": 1}


@given(drawings(max_side=6))
@settings(max_examples=200, deadline=None)
def test_noncrossing_table_agrees_with_maximum_matching(d):
    assert fuzz._noncrossing_matching_size(d) == len(tl.maximum_noncrossing_matching(d))


def test_crashing_check_becomes_replayable_failure(monkeypatch):
    def crash(drawing, cert):
        raise RuntimeError("audit crashed")

    monkeypatch.setattr(fuzz, "audit_counting_bounds", crash)
    config = FuzzConfig(trials=12, seed=7)
    rep = tl.run_fuzz(config)
    assert [(d.check, d.trial) for d in rep.failures] == [("audit", t) for t in range(12)]
    assert rep.stats["audit"] == CheckStats(run=12, failed=12)
    for name in tl.ALL_CHECKS:
        stats = rep.stats[name]
        assert stats.run + stats.skipped == 12
        if name != "audit":
            assert stats.run > 0 and stats.passed == stats.run
    for dump in rep.failures:
        assert dump.detail == "raised RuntimeError: audit crashed"
        assert dump.certificate_json is None and not dump.inverted
        assert tl.replay_failure(dump, config) == dump
    # inverting the crashing check does not turn its crash into a pass
    inverted = FuzzConfig(trials=12, seed=7, invert_check="audit")
    assert tl.run_fuzz(inverted).failures == rep.failures


def test_invalid_construction_fails_the_decompose_check(monkeypatch):
    """decompose_drawing validates what it returns, so a construction that
    loses a bag fails the decompose check as a raised CertificateError, and
    the dump replays."""
    real = decompose._spans
    invalid = []  # per trial: is the construction without its last bag invalid

    def drop_last_bag(drawing, *args):
        runs, at, pd, tags = real(drawing, *args)
        bags = pd.bags[:-1]
        invalid.append(bool(tl.validate_decomposition(drawing.graph, tl.PathDecomposition(bags))))
        span = {
            v: (lo, min(hi, len(bags)))
            for v, (lo, hi) in pd._intervals[0].items()
            if lo <= len(bags)
        }
        return runs, at, tl.PathDecomposition._from_intervals(span, len(bags)), tags

    monkeypatch.setattr(decompose, "_spans", drop_last_bag)
    config = FuzzConfig(trials=30, seed=7, checks=("decompose",))
    rep = tl.run_fuzz(config)
    assert [d.trial for d in rep.failures] == [t for t, bad in enumerate(invalid) if bad]
    assert rep.failures
    for dump in rep.failures:
        assert dump.detail.startswith(
            "raised CertificateError: construction produced an invalid decomposition: "
        )
        assert tl.replay_failure(dump, config) == dump


def test_fuzz_checks_build_no_bags(monkeypatch):
    """Every check reads widths, bag counts and bag intervals; none builds
    the bags of a decomposition that the builders gave as intervals."""
    built = record_bag_builds(monkeypatch)
    rep = tl.run_fuzz(FuzzConfig(trials=40, seed=3))
    assert rep.ok and all(s.run for s in rep.stats.values())
    assert built == []
    g = tl.grid_graph(2)[0]
    assert tl.order_to_decomposition(g, g.vertices).bags and len(built) == 1


def test_counting_check_skips_an_edgeless_trial_before_dropping_vertices(monkeypatch):
    """Dropping isolated A-vertices removes no edge, so an edgeless trial is
    skipped before any sub-drawing is built."""
    real = fuzz.drop_isolated_a
    dropped = []
    monkeypatch.setattr(fuzz, "drop_isolated_a", lambda d: dropped.append(d) or real(d))
    config = FuzzConfig(trials=60, seed=5, na_max=6, nb_max=6, checks=("counting",))
    stats = tl.run_fuzz(config).stats["counting"]
    assert stats.skipped > 0 and stats.run > 0
    assert len(dropped) == stats.run and all(d.graph.edges for d in dropped)
