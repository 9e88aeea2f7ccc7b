"""Each public name of grothq is declared once, in its module's __all__."""

import grothq
from grothq import experiments, forms, linalg, matrix_io, norms, states

EXPORTING_MODULES = (linalg, norms, forms, states, experiments, matrix_io)

# The names grothq exported when it listed them by hand; none may go.
EXPORTED_BEFORE = """
    ConsistencyError ConvergenceError EigenDecomposition ExpansionCoefficients
    ExperimentRecord G6Certificate GClassification InputValidationError K_G_UPPER
    NormReport OptimizerConfig OptimizerRun OverlapProjector PhaseSystemReport
    PolydiscTuple RarityStats StateFamily VectorTuple __version__ build_family
    build_projector certify_g6 classify displacement_operator
    eigenvalue_multiplicities eval_C eval_Q_trace expand_state fourier_matrix
    g_lower g_prime g_upper hermitian_eig is_normal isotropy_check
    kg_region_check largest_singular_value load_matrix matrix_from_dict
    matrix_to_dict max_q_lower norm_entrywise_l1 norm_frobenius norm_report
    normalization_factor overlap_power_sum permutation_invariance_check
    permutation_matrix phase_system_solvable resolution_check row_norms
    run_bounded_demo run_h12 run_h6 run_rarity save_matrix to_unit_s
    torus_witness
""".split()


def test_package_exports_the_modules_public_names_once():
    declared = [name for module in EXPORTING_MODULES for name in module.__all__]
    assert grothq.__all__ == declared + ["__version__"]
    assert len(set(grothq.__all__)) == len(grothq.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    for module in EXPORTING_MODULES:
        for name in module.__all__:
            assert getattr(grothq, name) is getattr(module, name)
    assert isinstance(grothq.__version__, str)


def test_no_previously_exported_name_is_dropped():
    assert len(EXPORTED_BEFORE) == 58
    assert set(EXPORTED_BEFORE) <= set(grothq.__all__)
    assert {"as_matrix", "require_square", "UNIT_SET_TOL", "unit_set_verdicts"} <= set(
        grothq.__all__)
    assert "ensembles" not in grothq.__all__
