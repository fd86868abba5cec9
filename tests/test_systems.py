import json
from pathlib import Path

import numpy as np
import pytest

import metriplectic as mp

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PARAM_SETS = [
    mp.RigidBodyParams(3.0, 2.0, 1.0, 1.0),
    mp.RigidBodyParams(5.0, 3.0, 2.0, 2.0),
    mp.RigidBodyParams(4.0, 2.5, 1.5, 0.5),
    mp.RigidBodyParams(10.0, 4.0, 1.0, -1.0),
    mp.RigidBodyParams(2.5, 2.0, 1.5, 1.5),
]


def rigid_document(**overrides):
    doc = {
        "name": "rigid-body",
        "dimension": 3,
        "poisson": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
        "hamiltonian": "x1^2/6 + x2^2/4 + x3^2/2",
        "casimirs": ["(x1^2 + x2^2 + x3^2)/2"],
        "phi": "(s1 - 0.5)^2 - s1/3",
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# parameters

def test_derived_coefficients():
    p = mp.RigidBodyParams(3.0, 2.0, 1.0, 1.0)
    assert (p.a1, p.a2, p.a3) == pytest.approx((0.5, -2 / 3, 1 / 6), rel=1e-15)
    assert p.c_phi == pytest.approx(1 + 1 / 3, rel=1e-15)


def test_coefficients_sum_to_zero():
    for p in PARAM_SETS:
        assert abs(p.a1 + p.a2 + p.a3) <= 1e-15


def test_ordering_enforced():
    with pytest.raises(ValueError):
        mp.RigidBodyParams(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        mp.RigidBodyParams(3.0, 2.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        mp.RigidBodyParams(3.0, 3.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# built-in system and its oracle

def test_conservative_field_value():
    sys_def = mp.rigid_body_system()
    assert mp.conservative_field(sys_def, [1.0, 1.0, 1.0]) == pytest.approx(
        [0.5, -2 / 3, 1 / 6], rel=1e-15
    )


def test_built_in_passes_conditions():
    sys_def = mp.rigid_body_system()
    pts = mp.sample_box(3, (-2, 2), 300, seed=40)
    assert mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10).passed


def test_oracle_spot_value():
    out = mp.rigid_body_perturbed_rhs(mp.RigidBodyParams(), [1.0, 1.0, 1.0])
    assert out == pytest.approx([-3 / 4, -38 / 27, 103 / 108], rel=1e-14)


def test_oracle_vanishes_on_axes():
    p = mp.RigidBodyParams()
    for point in ([p.M0, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, -2.2]):
        assert mp.rigid_body_perturbed_rhs(p, point) == pytest.approx([0, 0, 0], abs=1e-15)


def test_oracle_matches_generic_field():
    rng = np.random.default_rng(41)
    for params in PARAM_SETS:
        sys_def = mp.rigid_body_system(params, mp.VerificationPolicy(samples=100))
        for _ in range(200):
            x = rng.uniform(-2, 2, 3)
            generic = mp.metriplectic_field(sys_def, x)
            oracle = mp.rigid_body_perturbed_rhs(params, x)
            bound = 1e-12 * (1.0 + np.linalg.norm(x) ** 3)
            assert np.max(np.abs(generic - oracle)) <= bound


def test_oracle_input_validation():
    p = mp.RigidBodyParams()
    with pytest.raises(ValueError):
        mp.rigid_body_perturbed_rhs(p, [1.0, 2.0])
    with pytest.raises(ValueError):
        mp.rigid_body_perturbed_rhs(p, [np.nan, 0.0, 0.0])


# ---------------------------------------------------------------------------
# load_system

def test_document_equivalent_to_builtin():
    from_doc = mp.load_system(rigid_document())
    builtin = mp.rigid_body_system()
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        assert np.max(np.abs(mp.metriplectic_field(from_doc, x) - mp.metriplectic_field(builtin, x))) <= 1e-12
    assert from_doc.n == 3 and from_doc.k == 1


def test_shipped_config_loads():
    sys_def = mp.load_system_file(CONFIG_DIR / "rigid_body.json")
    assert sys_def.name == "rigid-body"
    assert mp.metriplectic_field(sys_def, [1.0, 1.0, 1.0]) == pytest.approx(
        [-3 / 4, -38 / 27, 103 / 108], rel=1e-14
    )


def test_bad_casimir_document_rejected():
    doc = rigid_document(casimirs=["x1"], phi="s1")
    with pytest.raises(mp.CasimirError) as err:
        mp.load_system(doc)
    assert err.value.residual >= 1.0
    assert err.value.point.shape == (3,)


def test_no_casimir_document_accepted():
    doc = rigid_document()
    del doc["casimirs"]
    del doc["phi"]
    sys_def = mp.load_system(doc)
    assert sys_def.k == 0
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        assert np.array_equal(
            mp.metriplectic_field(sys_def, x), mp.conservative_field(sys_def, x)
        )


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda d: d.pop("hamiltonian"), "hamiltonian"),
        (lambda d: d.pop("dimension"), "dimension"),
        (lambda d: d.update(dimension=0), "dimension"),
        (lambda d: d.update(poisson=[["0"]]), "poisson"),
        (lambda d: d.update(poisson=d["poisson"][:2]), "poisson"),
        (lambda d: d.update(hamiltonian="x1 +"), "position"),
        (lambda d: d.update(poisson=[["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "oops"]]), r"poisson\[2\]\[2\]"),
        (lambda d: d.pop("phi"), "phi"),
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.update(casimirs="x1"), "casimirs"),
        (lambda d: d.update(name=7), "name"),
        (lambda d: d.update(verification={"nope": 1}), "nope"),
        (lambda d: [d], "top level"),
        (lambda d: d.update(hamiltonian=3), "hamiltonian: expected an expression string"),
        (lambda d: d.update(verification=[1]), "verification: expected an object"),
        (lambda d: d.update(verification={"box": [-1, 0, 1]}), r"verification.box: expected \[lo, hi\]"),
        (lambda d: d.update(verification={"samples": "many"}), "verification: invalid literal"),
        # bool is a subclass of int, and int() truncates a float: each was loaded as some other integer
        (lambda d: d.update(dimension=True), "dimension: expected a positive integer, got True"),
        (lambda d: d.update(verification={"samples": 2.5}), r"verification\.samples: expected an integer, got 2\.5"),
        (lambda d: d.update(verification={"samples": True}), r"verification\.samples: expected an integer, got true"),
        (lambda d: d.update(verification={"samples": 1000.0}), r"verification\.samples: .* got 1000\.0"),
        (lambda d: d.update(verification={"samples": 2.5, "seed": True}), r"verification\.samples"),
        (lambda d: d.update(verification={"seed": True}), r"verification\.seed: expected an integer, got true"),
        (lambda d: d.update(verification={"seed": -0.5}), r"verification\.seed: expected an integer, got -0\.5"),
    ],
)
def test_schema_violations(mutate, match):
    doc = rigid_document()
    replaced = mutate(doc)
    with pytest.raises(mp.ConfigError, match=match):
        mp.load_system(replaced if isinstance(replaced, list) else doc)  # a list replaces the document


SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json")) + [CONFIG_DIR.parent / "perfbench" / "configs" / "e3.json"]


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_every_shipped_config_loads_with_its_own_verification_block(path):
    doc = json.loads(path.read_text())
    sys_def = mp.load_system_file(path)
    assert sys_def.n == doc["dimension"]
    block = doc.get("verification", {})
    policy = (sys_def.verification.samples, sys_def.verification.seed)
    assert policy == (block.get("samples", 1000), block.get("seed", 0))


def test_overflowing_literal_rejected_at_load():
    doc = rigid_document(hamiltonian="x1/1e999")
    with pytest.raises(mp.ConfigError, match=r"hamiltonian: numeric literal '1e999' overflows \(position 3\)"):
        mp.load_system(doc)


def test_phi_without_casimirs_rejected():
    doc = rigid_document(casimirs=[])
    with pytest.raises(mp.ConfigError, match="phi"):
        mp.load_system(doc)


def test_verification_override_allows_inspection():
    doc = rigid_document(casimirs=["x1"], phi="s1")
    sys_def = mp.load_system(doc, mp.VerificationPolicy(samples=0))
    pts = mp.sample_box(3, (-2, 2), 50, seed=44)
    assert not mp.verify_metriplectic_conditions(sys_def, pts, tol=1e-10).passed


@pytest.mark.parametrize("block", [[1], {"samples": "many"}, {"bogus": 1}])
def test_verification_block_is_checked_also_when_overridden(block):
    with pytest.raises(mp.ConfigError, match="verification"):
        mp.load_system(rigid_document(verification=block), mp.VerificationPolicy(samples=0))


def test_load_system_file_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(mp.ConfigError, match="JSON"):
        mp.load_system_file(path)


def test_document_verification_block_respected():
    doc = rigid_document(verification={"box": [-1, 1], "samples": 10, "tolerance": 1e-8, "seed": 5})
    sys_def = mp.load_system(doc)
    assert sys_def.verification.samples == 10
    assert sys_def.verification.box == (-1.0, 1.0)
