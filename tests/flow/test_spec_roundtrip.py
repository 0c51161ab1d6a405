"""Spec round-trip fidelity: parse(spec()) must reproduce pipelines.

The compile cache keys on ``PassManager.spec()``, so a value that
renders ambiguously (string with a comma, ``"nan"``, ``"true"``)
would silently merge distinct pipelines into one fingerprint.  These
tests pin the quoting/escaping contract of ``render_spec_value`` /
``parse_spec_value`` and the round-trip over every registered pass.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import (
    PASS_REGISTRY,
    FlowError,
    PassManager,
    registered_pass_names,
)
from repro.flow.core import PASS_SCHEMAS, parse_spec_value, render_spec_value
from repro.flow.manager import _split_items


# ---------------------------------------------------------------------
# Value-level round trips.
# ---------------------------------------------------------------------

def test_scalar_values_round_trip():
    for value in (None, True, False, 0, -3, 17, 0.5, -2.25, 1e20, 2.0):
        text = render_spec_value(value)
        parsed = parse_spec_value(text)
        assert parsed == value and type(parsed) is type(value)


def test_hostile_strings_round_trip_quoted():
    for value in (
        "a,b", "x{y}", "k=v", "}", "{", "nan", "inf", "-inf", "Infinity",
        "true", "false", "none", "123", "1_000", "007", "1e3", "",
        " padded ", "tab\tchar", "don't", "back\\slash", "it's''quoted",
        "a?b", "a[2]", '"double"',
    ):
        text = render_spec_value(value)
        parsed = parse_spec_value(text)
        assert parsed == value and type(parsed) is str, (value, text)


@settings(max_examples=200)
@given(st.text(max_size=40))
def test_any_string_round_trips(value):
    parsed = parse_spec_value(render_spec_value(value))
    assert parsed == value and type(parsed) is str


def test_plain_strings_stay_bare():
    assert render_spec_value("gray") == "gray"
    assert render_spec_value("tsmc90ish") == "tsmc90ish"


def test_non_representable_values_are_rejected():
    with pytest.raises(FlowError, match="non-finite"):
        render_spec_value(float("nan"))
    with pytest.raises(FlowError, match="non-finite"):
        render_spec_value(float("inf"))
    with pytest.raises(FlowError, match="not spec-representable"):
        render_spec_value([1, 2])
    with pytest.raises(FlowError, match="not spec-representable"):
        render_spec_value(object())


def test_malformed_quoted_values_are_rejected():
    with pytest.raises(FlowError, match="unterminated"):
        parse_spec_value("'abc")
    with pytest.raises(FlowError, match="unterminated"):
        parse_spec_value("'abc\\'")
    with pytest.raises(FlowError, match="after the closing quote"):
        parse_spec_value("'a'b")


# ---------------------------------------------------------------------
# Spec-level round trips: every registered pass.
# ---------------------------------------------------------------------

def test_every_registered_pass_round_trips_at_defaults():
    for name in registered_pass_names():
        instance = PASS_REGISTRY[name]()
        spec = instance.spec()
        manager = PassManager.parse(spec)
        assert manager.spec() == spec, name
        [parsed] = manager.passes
        assert type(parsed) is type(instance), name


#: Non-default parameterizations exercising every declared knob.
_PARAMETERIZED = [
    ("encode", {"style": "gray"}),
    ("encode", {"style": "onehot"}),
    ("elaborate", {"fold_sync_reset": True}),
    ("tt_sweep", {"support_limit": 8}),
    ("rewrite", {"k": 5, "max_cuts": 9}),
    ("stateprop", {"rounds": 3}),
    ("optimize", {"effort_rounds": 3, "support_limit": 6}),
    ("retime_stage", {"effort_rounds": 1, "max_rounds": 2}),
    ("retime_stage", {"support_limit": 5}),
    ("state_folding", {"effort_rounds": 3, "support_limit": 4}),
    ("resub", {"k": 2, "max_divisors": 8, "support_limit": 6}),
    ("dc_rewrite", {"k": 3, "max_cuts": 4, "tfo_depth": 3,
                    "support_limit": 8}),
    ("map", {"library": "tsmc90ish"}),
    ("map", {"library": "generic45ish"}),
    ("map", {"library": "lowpowerish"}),
    ("size", {"clock_period_ns": 2.5}),
    ("size", {"clock_period_ns": 20}),  # an int renders back as an int
    ("fsm_encode", {"style": "onehot", "realize": "case"}),
    ("fsm_encode", {"style": "gray", "flexible": True}),
    ("table_rom", {"name": "tbl_x"}),
    ("table_minimize", {"engine": "qm", "name": "sop_y"}),
    ("microcode_pack", {"addr_bits": 6, "cond_bits": 3}),
    ("dispatch_rom", {"name": "seq", "flexible": True, "annotate": False,
                      "num_conditions": 3}),
    ("pe_bind", {"annotate": True, "regs": "state,upc"}),
]


def test_every_option_round_trips_off_its_default():
    covered = {
        (name, key)
        for name, params in _PARAMETERIZED
        for key, value in params.items()
        if value != PASS_SCHEMAS[name].options[key].default
    }
    declared = {
        (name, key)
        for name in registered_pass_names()
        for key in PASS_SCHEMAS[name].options
    }
    assert declared - covered == set()


def test_parameterized_passes_round_trip():
    for name, params in _PARAMETERIZED:
        instance = PASS_REGISTRY[name](**params)
        spec = instance.spec()
        manager = PassManager.parse(spec)
        assert manager.spec() == spec, (name, params)
        [parsed] = manager.passes
        assert parsed.params() == instance.params(), (name, params)


def test_full_default_flow_spec_round_trips():
    from repro.flow import default_pipeline
    from repro.synth.dc_options import CompileOptions

    for options in (
        CompileOptions(),
        CompileOptions(retime=True, effort_rounds=3),
        CompileOptions(fsm_encoding="same", sweep_support_limit=8),
    ):
        pipeline = default_pipeline(options)
        spec = pipeline.spec()
        assert PassManager.parse(spec).spec() == spec


def test_quoted_values_survive_item_and_option_splitting():
    # A registered pass whose string param needs quoting end-to-end.
    from repro.flow.core import make_pass, register_pass, Pass

    @register_pass("quoted_probe")
    class QuotedProbe(Pass):
        def __init__(self, tag: str = "x") -> None:
            super().__init__()
            self.tag = tag

        def params(self):
            return {"tag": self.tag} if self.tag != "x" else {}

        def run(self, ctx):
            pass

    try:
        for tag in ("a,b", "k=v{}", "nan", "it's", "w\\e[1]?"):
            spec = PassManager([QuotedProbe(tag=tag), QuotedProbe()]).spec()
            manager = PassManager.parse(spec)
            assert manager.spec() == spec, tag
            assert manager.passes[0].tag == tag
            assert manager.passes[1].tag == "x"
    finally:
        from repro.flow import PASS_REGISTRY

        PASS_REGISTRY.pop("quoted_probe", None)


# ---------------------------------------------------------------------
# Unbalanced-brace and malformed-spec errors.
# ---------------------------------------------------------------------

def test_stray_close_brace_is_an_error():
    with pytest.raises(FlowError, match=r"unbalanced '\}'"):
        _split_items("balance},rewrite")
    with pytest.raises(FlowError, match=r"unbalanced '\}'"):
        PassManager.parse("balance}")


def test_unclosed_open_brace_is_an_error():
    with pytest.raises(FlowError, match=r"unbalanced '\{'"):
        _split_items("encode{style=gray")
    with pytest.raises(FlowError, match=r"unbalanced '\{'"):
        PassManager.parse("encode{style=gray,balance")


def test_unterminated_quote_is_an_error():
    with pytest.raises(FlowError, match="unterminated quote"):
        PassManager.parse("encode{style='gray}")


def test_stray_brace_does_not_mis_split_items():
    # The old behaviour clamped depth at zero, so "a}b,c" split as one
    # item "a}b" plus "c" -- now the malformed spec is reported.
    with pytest.raises(FlowError):
        PassManager.parse("seq_sweep}x,balance")
