import pytest
from hypothesis import HealthCheck, settings

from hardy_lab import make_antitree, make_tree

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# more random cases for the bit-exact sweep, spectral, ground-ratio, radial
# storage, prefix view (test_radial_model.py::
# test_prefix_views_are_slices_of_the_whole_depth_views), one tail-window
# scan (test_greens.py::test_window_scans_in_blocks_match_the_whole_window)
# and its int64 blocks (test_greens.py::test_window_scans_match_on_object_storage),
# block-streamed Green recursion and kappa_constant_from (test_greens.py::
# test_green_recursion_in_blocks_matches_the_whole_depth and
# test_kappa_constant_from_in_blocks_matches_the_whole_depth), Green
# stretch sum that stops (test_greens.py::
# test_green_stretch_sum_stops_where_its_terms_vanish), Green
# weight, blocked criticality sum (test_optimality.py::
# test_criticality_on_drawn_models_equals_whole_arrays) and transform
# mutation (test_optimality.py::
# test_transform_coefficients_decide_as_the_sampled_identity) and lambda0
# section guide (test_optimality.py::
# test_closed_form_guides_on_drawn_homogeneous_sections) and extrapolated
# bottom (test_sturm_sweep.py::
# test_extrapolated_guides_give_the_unguided_bottoms) oracles, in one CI
# step ("Oracles with more examples"): pytest tests/test_sturm_sweep.py
# tests/test_spectral_ops.py tests/test_ground_ratio.py
# tests/test_radial_model.py tests/test_greens.py tests/test_optimality.py
# --hypothesis-profile=ci
settings.register_profile("ci", parent=settings.get_profile("suite"), max_examples=300)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tree2():
    return make_tree(2, 2100)


@pytest.fixture(scope="session")
def tree3():
    return make_tree(3, 1100)


@pytest.fixture(scope="session")
def antitree_linear():
    # sphere sizes 1, 2, 3, ...
    return make_antitree(lambda r: r + 1, 1100)
