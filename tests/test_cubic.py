import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcat import quadric
from nodalcat.cubic import (
    ContractRetraction,
    D_K3,
    MutateLeft,
    PicClass,
    Placed,
    PushPullBaseChange,
    Q_NODE,
    TwistBy,
    apply_chain,
    build_psi,
    verify_cubic,
)
from nodalcat.errors import RuleNotApplicable
from nodalcat.quadric import QuadricSheaf as QS


class TestPicClasses:
    def test_divisor_identities(self):
        assert D_K3 == PicClass(3, -1)
        assert Q_NODE == PicClass(-1, 1)

    def test_consistency_two_ways(self):
        # conormal convention vs the lattice identity Q = H - h
        assert Q_NODE.restrict_to_quadric() == -1

    def test_hyperplane_pulls_back_trivially(self):
        assert PicClass(0, 5).restrict_to_quadric() == 0

    def test_render(self):
        assert PicClass(4, -1).render() == "4h-H"
        assert PicClass(0, 1).render() == "H"
        assert PicClass(1, 1).render() == "h+H"
        assert PicClass(0, 0).render() == "0"


class TestChainStructure:
    def test_step_count(self):
        assert len(build_psi()) == 5

    def test_first_applied_step(self):
        chain = build_psi()
        first = chain[-1]
        assert isinstance(first, MutateLeft)
        assert first.cls == PicClass(4, 0) - D_K3 == PicClass(1, 1)
        assert first.label == "L_{O(4h-D)}"

    def test_twist_carries_shift_one(self):
        twist = [s for s in build_psi() if isinstance(s, TwistBy)]
        assert len(twist) == 1
        assert twist[0].shift == 1
        assert twist[0].cls == PicClass(0, -1)  # -3h + D = -H

    def test_rule_kinds(self):
        kinds = [type(s) for s in build_psi()]
        assert kinds == [ContractRetraction, PushPullBaseChange, TwistBy, MutateLeft, MutateLeft]


class TestApplyChain:
    def test_full_replay(self):
        result, trace = apply_chain(build_psi(), Placed("j*", QS("S")))
        assert result == Placed("t*", QS("S"), shift=1)
        assert [t["rule"] for t in trace] == ["R1", "R1", "R2", "R3", "R4"]
        assert trace[-1]["result"] == "t*S[1]"

    def test_trace_schema_and_evidence(self):
        _, trace = apply_chain(build_psi(), Placed("j*", QS("S")))
        for entry in trace:
            assert set(entry) == {"step", "rule", "citation", "hom_evidence", "result"}
        # every trivial mutation carries its computed zero Hom as evidence
        r1 = [t for t in trace if t["rule"] == "R1"]
        assert len(r1) == 2
        for entry in r1:
            assert entry["hom_evidence"] == {}

    def test_empty_chain(self):
        obj = Placed("j*", QS("S"))
        result, trace = apply_chain((), obj)
        assert result == obj and trace == []

    def test_trivial_twist(self):
        # twisting by -H does nothing to a pushforward from the quadric
        result, _ = apply_chain((TwistBy(PicClass(0, -1), 0, "T_{O(-H)}"),), Placed("j*", QS("S")))
        assert result == Placed("j*", QS("S"), shift=0)

    def test_nontrivial_mutation_refused(self):
        # Hom(O(-h), j*S) = H(S(1)) is nonzero: the rule must not fire
        step = MutateLeft(PicClass(-1, 0), "L_{O(-h)}")
        with pytest.raises(RuleNotApplicable) as err:
            apply_chain((step,), Placed("j*", QS("S")))
        assert str(err.value) == "L_{O(-h)}: mutation is non-trivial, Hom = C^4"

    def test_retraction_needs_d_side_object(self):
        with pytest.raises(RuleNotApplicable) as err:
            apply_chain((ContractRetraction(),), Placed("j*", QS("S")))
        assert str(err.value) == "the retraction expects an object on D"

    @pytest.mark.parametrize(
        "step, obj, text",
        [
            (TwistBy(PicClass(0, -1), 1, "T_{O(-H)[1]}"), Placed("t*", QS("S")),
             "T_{O(-H)[1]} expects a pushforward object"),
            (PushPullBaseChange(), Placed("t*", QS("S"), shift=1),
             "base change expects a pushforward object"),
            ("p_!", Placed("j*", QS("S")), "unknown step 'p_!'"),
        ],
        ids=["R2", "R3", "unknown"],
    )
    def test_refusal_text(self, step, obj, text):
        with pytest.raises(RuleNotApplicable) as err:
            apply_chain((step,), obj)
        assert str(err.value) == text

    def test_mutation_evidence_values(self):
        # the two trivial mutations are backed by actual vanishing on Q
        assert quadric.cohomology(3, QS("S", -1)).is_zero  # Hom(O(4h-D), j*S)
        assert quadric.cohomology(3, QS("S", 0)).is_zero  # Hom(O(3h-D), j*S)


_classes = st.builds(PicClass, st.integers(-4, 4), st.integers(-2, 2))
_pushforward_steps = st.one_of(
    st.builds(TwistBy, _classes, st.integers(-2, 2), st.just("T")),
    st.builds(MutateLeft, _classes, st.just("L")),
)
_steps = st.one_of(_pushforward_steps, st.just(PushPullBaseChange()), st.just(ContractRetraction()))
# half the chains have the shape of build_psi, so that many run to the end
_chains = st.one_of(
    st.lists(_steps, max_size=6).map(tuple),
    st.builds(
        lambda tail, head: tail + tuple(head),
        st.sampled_from([(), (PushPullBaseChange(),), (ContractRetraction(), PushPullBaseChange())]),
        st.lists(_pushforward_steps, max_size=4),
    ),
)
_placed = st.builds(
    Placed,
    st.sampled_from(["j*", "s*t*", "t*"]),
    st.builds(QS, st.sampled_from(["O", "S"]), st.integers(-5, 5)),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(_chains, _placed)
def test_random_chain_refuses_or_traces_every_step(chain, obj):
    try:
        result, trace = apply_chain(chain, obj)
    except RuleNotApplicable:
        return
    assert isinstance(result, Placed)
    assert len(trace) == len(chain)
    for entry in trace:
        assert set(entry) == {"step", "rule", "citation", "hom_evidence", "result"}
    assert trace[-1]["result"] == result.render() if trace else result == obj


class TestVerifyCubic:
    def test_all_pass(self):
        report = verify_cubic()
        assert report["all_pass"] is True
        ids = [item["id"] for item in report["items"]]
        assert ids == ["membership", "kernel-image", "mukai-numerics"]

    def test_membership_values(self):
        # Hom(O(kH), j*S) = H(S) = 0 and no Homs to the perp line bundles
        from nodalcat import nodal

        assert quadric.cohomology(3, QS("S")).is_zero
        assert nodal.hom_push(3, QS("S"), QS("O", -1)).is_zero
        assert nodal.hom_push(3, QS("S"), QS("O", -2)).is_zero

    def test_shift_reported_not_hidden(self):
        report = verify_cubic()
        item = next(i for i in report["items"] if i["id"] == "kernel-image")
        assert "shift [1]" in item["got"]

    def test_trace_embedded(self):
        report = verify_cubic()
        assert len(report["trace"]) == 5
        assert report["trace"][-1]["result"] == "t*S[1]"

    def test_mukai_item(self):
        report = verify_cubic()
        item = next(i for i in report["items"] if i["id"] == "mukai-numerics")
        assert "<v,v> = -2" in item["got"]
        assert "chi = 2" in item["got"]
